"""The forked sweep worker: the same states as sweep_states, its fallbacks, rejections and cleanup."""

import os
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from wignerflow import cli, fluxes
from wignerflow.errors import RejectionError
from wignerflow.fluxes import propagate_states, sweep_ahead, sweep_states
from wignerflow.grid import CoordinateGrid
from wignerflow.potentials import pure_quartic
from wignerflow.states import coherent, evaluate_state

from test_cli import SMALL, assert_one_error_line, usable_cpus, write_config

POT = pure_quartic()
OUTPUTS = ("report.json", "fluxes.csv", "orbit.csv")


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test leaves no child process behind, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls made by this process."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def phi_at(tau: float, n: int = 512):
    phi0 = evaluate_state(coherent(1.0, 0.5), CoordinateGrid(16.0, n), 0.0)
    return propagate_states(phi0, POT, [tau], 1e-3)[tau]


def stream(sweep, phi0, times, dtau=1e-3) -> list:
    return [(t, type(t), phi.tau, phi.values) for t, phi in sweep(phi0, POT, times, dtau)]


def assert_same_stream(got: list, expected: list) -> None:
    assert [entry[:3] for entry in got] == [entry[:3] for entry in expected]
    for (*_, values), (*_, reference) in zip(got, expected):
        assert values.dtype == reference.dtype
        assert np.array_equal(values, reference)


@pytest.mark.parametrize("base, times, n", [
    (0.0, [0.0, 0.1, 0.2], 512),
    # before, at and after the base time, out of order and repeated
    (0.25, [0.3, 0.2, 0.25, 0.26, 0.24, 0.3, 0.25], 512),
    (0.0, np.linspace(0.0, 0.2, 5), 512),
    # one state is 128 KB, more than a pipe buffer holds
    (0.0, [0.0, 0.01], 8192),
], ids=["forward", "both legs", "numpy times", "state above the pipe buffer"])
def test_worker_stream_equals_the_sweep_bit_for_bit(monkeypatch, forks, base, times, n):
    usable_cpus(monkeypatch, 2)
    phi0 = phi_at(base, n)
    assert_same_stream(stream(sweep_ahead, phi0, times), stream(sweep_states, phi0, times))
    assert len(forks) == 1


def run_small(tmp_path: Path, name: str) -> dict:
    """cli.run of SMALL with three output times and a 4-node accumulation: its output files' bytes."""
    config = cli.parse_config({
        **SMALL, "output_times": [0.0, 0.25, 0.5], "accumulation": {"enabled": True, "time_nodes": 4},
    })
    out = cli.run(config, tmp_path / name)
    return {file: (out / file).read_bytes() for file in OUTPUTS}


def count_steps(monkeypatch) -> list:
    """Split steps this process takes through fluxes.evolve_wavefunction."""
    steps = []

    def counted(phi, potential, dtau, n, _evolve=fluxes.evolve_wavefunction):
        steps.append(n)
        return _evolve(phi, potential, dtau, n)

    monkeypatch.setattr(fluxes, "evolve_wavefunction", counted)
    return steps


def test_fork_failure_runs_the_sweep_in_process(tmp_path, monkeypatch, forks):
    usable_cpus(monkeypatch, 2)
    steps = count_steps(monkeypatch)
    forked = run_small(tmp_path, "forked")
    assert len(forks) == 2  # the output sweep and the accumulation sweep
    oracle_steps = sum(steps)
    assert oracle_steps == 3 * 4

    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    steps.clear()
    assert run_small(tmp_path, "in-process") == forked
    assert sum(steps) > oracle_steps  # the sweeps' own steps ran here


def test_one_cpu_runs_the_sweep_in_process(tmp_path, monkeypatch, forks):
    usable_cpus(monkeypatch, 2)
    forked = run_small(tmp_path, "forked")
    usable_cpus(monkeypatch, 1)
    forks.clear()
    assert run_small(tmp_path, "in-process") == forked
    assert forks == []


def test_a_finished_run_kills_no_worker(tmp_path, monkeypatch, forks):
    # both sweeps are read to their end marker, so each worker exits of itself
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "kill", lambda pid, sig: pytest.fail(f"worker {pid} killed"))
    run_small(tmp_path, "out")
    assert len(forks) == 2


def test_affinity_is_the_cpu_count_where_the_platform_has_none(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert fluxes._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fluxes._usable_cpus() == 1


def reject_legs_past(monkeypatch, tau: float) -> None:
    """fluxes.evolve_wavefunction rejects every leg that ends after tau."""
    def evolve(phi, potential, dtau, n, _evolve=fluxes.evolve_wavefunction):
        end = phi.tau + dtau * n
        if end > tau:
            raise RejectionError(f"test rejection of the leg to tau={end:.3f}")
        return _evolve(phi, potential, dtau, n)

    monkeypatch.setattr(fluxes, "evolve_wavefunction", evolve)


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "in-process"])
@pytest.mark.parametrize("changes, stage, end", [
    ({"output_times": [0.0, 0.5]}, "states.evolve_wavefunction", 0.5),
    ({"output_times": [0.0], "accumulation": {"enabled": True, "time_nodes": 4}}, "fluxes.period_accumulation", None),
], ids=["output sweep", "accumulation sweep"])
def test_rejection_in_the_sweep_is_one_error_line(tmp_path, monkeypatch, capsys, cpus, changes, stage, end):
    usable_cpus(monkeypatch, cpus)
    reject_legs_past(monkeypatch, 0.25)
    config = write_config(tmp_path, **changes)
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err, 3)
    message = f" message=[{stage}] test rejection of the leg to tau="
    assert message in err
    if end is not None:
        assert f"{message}{end:.3f}\n" in err


def test_worker_failure_raises_in_the_parent(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def broken(phi, potential, dtau, n):
        raise ZeroDivisionError("test failure")

    monkeypatch.setattr(fluxes, "evolve_wavefunction", broken)
    with pytest.raises(RuntimeError, match="ZeroDivisionError: test failure"):
        list(sweep_ahead(phi_at(0.0), POT, [0.0, 0.1], 1e-3))


#: A sweep of 10^6 split steps, far longer than any of these tests waits.
LONG = [0.0, 1000.0]


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "in-process"])
def test_consumer_that_raises_returns_at_once(tmp_path, monkeypatch, capsys, cpus):
    usable_cpus(monkeypatch, cpus)
    raised = []

    def failing(*args, **kwargs):
        raised.append(time.monotonic())
        raise RejectionError("test rejection of the first snapshot")

    monkeypatch.setattr(fluxes, "instantaneous_block", failing)
    config = write_config(tmp_path, output_times=LONG)
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert time.monotonic() - raised[0] < 1.0
    assert_one_error_line(capsys.readouterr().err, 3)


@pytest.mark.parametrize("cpus", [2, 1], ids=["worker", "in-process"])
def test_stream_closed_after_its_first_state_returns_at_once(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    with closing(sweep_ahead(phi_at(0.0), POT, LONG, 1e-3)) as states:
        t, phi = next(states)
        assert t == phi.tau == 0.0
        start = time.monotonic()
    assert time.monotonic() - start < 1.0

