"""Command-line contract: exit codes, one-line errors and strict-JSON reports."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wignerflow
from wignerflow import cli, fluxes
from wignerflow.classical import solve_orbit
from wignerflow.cli import main, parse_config
from wignerflow.states import evaluate_state, wigner_transform

#: A small but complete run: 64^2 phase grid, 512-node coordinate grid.
SMALL = {
    "potential": {"kind": "pure_quartic"},
    "state": {"kind": "coherent", "x0": 1.0, "k0": 0.5},
    "grid": {"n_x": 64, "n_k": 64},
    "coordinate_grid": {"n": 512},
    "orbit": {"x0": 1.0, "k0": 0.0},
    "output_times": [0.0, 0.25],
}

MALFORMED = {
    "non-numeric grid size": {"grid": {"n_x": "abc"}},
    "infinite grid size": {"grid": {"n_x": float("inf")}},
    "fractional grid size": {"grid": {"n_x": 64.9}},
    "string flag": {"accumulation": {"enabled": "false"}},
    "terms not a list": {"state": {"kind": "superposition", "terms": 5}},
    "terms entry not an object": {"state": {"kind": "superposition", "terms": [5]}},
    "output_times not a list": {"output_times": 5},
    "grid section not an object": {"grid": "abc"},
    "nu_max beyond the derivative order": {"nu_max": 40},
    "NaN beta": {"beta_list": [float("nan")]},
    "two betas with one tag": {"beta_list": [2.0000001, 2.0000002]},
    "repeated beta": {"beta_list": [2, 2]},
    "unhashable potential kind": {"potential": {"kind": ["pure_quartic"]}},
    "output time of a non-finite step count": {"output_times": [0.0, 1e308]},
    "oracle leg of a non-finite step count": {"dtau": 1e-300, "dtau_fd": 1e300},
    "output leg above the step guard": {"dtau": 1e-300},
    "boolean nu_max": {"nu_max": True},
    "boolean x0": {"state": {"kind": "coherent", "x0": True, "k0": 0.5}},
    "boolean beta": {"beta_list": [True]},
    "all-zero superposition": {"state": {"kind": "superposition", "terms": [{"re": 0.0, "n": 0}, {"n": 1}]}},
}

#: Configs that pass validation and are rejected in the run: changes and the stage that rejects them.
REJECTED_IN_RUN = {
    "accumulation leg above the step guard": (
        {"accumulation": {"enabled": True, "time_nodes": 4, "dtau": 1e-300}}, "fluxes.period_accumulation",
    ),
}


def write_config(tmp_path: Path, **changes) -> Path:
    config = {**json.loads(json.dumps(SMALL)), **changes}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(wignerflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "wignerflow.cli", *args], capture_output=True, text=True, env=env, timeout=300
    )


def assert_one_error_line(stderr: str, code: int) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith(f"wignerflow-error code={code} ")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("changes", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_exits_2_with_one_error_line(changes, tmp_path, capsys):
    config = write_config(tmp_path, **changes)
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert_one_error_line(capsys.readouterr().err, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("changes, stage", REJECTED_IN_RUN.values(), ids=REJECTED_IN_RUN.keys())
def test_rejected_run_exits_3_with_one_error_line(changes, stage, tmp_path, capsys):
    config = write_config(tmp_path, **changes)
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err, 3)
    assert f" message=[{stage}] " in err


def test_string_section_is_named_not_spelled_out(tmp_path, capsys):
    main(["--config", str(write_config(tmp_path, grid="abc")), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "grid must be an object" in err
    assert "unknown key" not in err


def test_malformed_value_in_a_process_prints_no_traceback(tmp_path):
    result = run_cli("--config", str(write_config(tmp_path, output_times=5)), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert_one_error_line(result.stderr, 2)


@pytest.mark.parametrize("key, value, message", [
    ("nu_max", True, "nu_max must be a finite integer, got True"),
    ("epsilon_entropy", False, "epsilon_entropy must be a finite number, got False"),
    ("orbit", {"x0": True, "k0": 0.0}, "orbit.x0 must be a finite number, got True"),
])
def test_boolean_is_not_a_number(key, value, message):
    # bool converts to 1 or 0, which used to run as nu_max = 1 or x0 = 1.0
    with pytest.raises(wignerflow.ConfigError) as caught:
        parse_config({**SMALL, key: value})
    assert str(caught.value) == message


def test_all_zero_superposition_in_a_process_prints_one_line(tmp_path):
    # it used to print a numpy RuntimeWarning, then exit 3 from evaluate_state
    state = {"kind": "superposition", "terms": [{"re": 0.0, "im": 0.0, "n": 2}]}
    result = run_cli("--config", str(write_config(tmp_path, state=state)), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert_one_error_line(result.stderr, 2)
    assert "coefficients are all zero" in result.stderr


def test_missing_config_file_exits_4(tmp_path):
    result = run_cli("--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"))
    assert result.returncode == 4
    assert_one_error_line(result.stderr, 4)


def test_small_run_writes_strict_json_and_one_row_per_time(tmp_path):
    config = write_config(tmp_path, accumulation={"enabled": True, "time_nodes": 4})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert not [w for w in caught if "unnormalized" in str(w.message)]

    def reject(token):
        raise ValueError(f"report.json holds the non-JSON constant {token}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"), parse_constant=reject)
    assert [blk["tau"] for blk in report["times"]] == SMALL["output_times"]
    # The beta = 0.5 volume term rejects on transformed fields, so its
    # balance has no value: null, with the reason kept beside it.
    acc = report["accumulated"]["renyi_0.5"]
    assert acc["balance"] is None
    assert acc["rejected"].startswith("W**beta undefined")
    assert isinstance(report["accumulated"]["sigma"]["balance"], float)

    with (out / "fluxes.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(SMALL["output_times"])
    assert [float(row[0]) for row in rows[1:]] == SMALL["output_times"]


def test_oracle_states_branch_off_each_output_time(tmp_path, monkeypatch):
    # 500 main-loop steps and 2 + 2 oracle steps (dtau_fd at dtau_fd / 2
    # each way) from each of the 3 output times: 500 + 3 * 4 = 512
    steps = []
    for module in (m for m in (cli, fluxes) if hasattr(m, "evolve_wavefunction")):
        def counted(phi, potential, dtau, n, _evolve=module.evolve_wavefunction):
            steps.append(n)
            return _evolve(phi, potential, dtau, n)
        monkeypatch.setattr(module, "evolve_wavefunction", counted)
    config = parse_config({**SMALL, "output_times": [0.0, 0.25, 0.5]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.run(config, tmp_path / "out")
    assert not [w for w in caught if "unnormalized" in str(w.message)]
    assert sum(steps) == 512


def run_recording_states(tmp_path, monkeypatch, dtau):
    """cli.run of SMALL at [0, 0.5]: its config, report, propagate_states calls and oracle regions."""
    sweeps, regions = [], []

    def recorded(phi0, potential, times, dtau_evolve, _propagate=fluxes.propagate_states):
        states = _propagate(phi0, potential, times, dtau_evolve)
        sweeps.append((phi0, states))
        return states

    def attach(block, states, region, *args, _attach=fluxes.attach_oracles):
        regions.append(region)
        return _attach(block, states, region, *args)

    monkeypatch.setattr(fluxes, "propagate_states", recorded)
    monkeypatch.setattr(fluxes, "attach_oracles", attach)
    config = parse_config({**SMALL, "output_times": [0.0, 0.5], "dtau": dtau})
    out = cli.run(config, tmp_path / f"out-{dtau:g}")
    monkeypatch.undo()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return config, report, sweeps, regions


def test_oracle_differentiates_the_state_whose_flux_it_checks(tmp_path, monkeypatch):
    runs = {dtau: run_recording_states(tmp_path, monkeypatch, dtau) for dtau in (1e-3, 2.5e-2)}
    # The oracle differentiates the loop's own state, so the main run's
    # time-step error stays out of rel_dev: 25 times the step moves sigma's
    # rel_dev at tau = 0.5 by well under 2 %.
    fine, coarse = (runs[dtau][1]["times"][1]["sigma"]["rel_dev"] for dtau in (1e-3, 2.5e-2))
    assert abs(coarse - fine) <= 0.02 * fine

    for config, report, sweeps, regions in runs.values():
        (phi0, phis), *branches = sweeps
        assert len(branches) == len(config.output_times)
        for t, (base, states) in zip(config.output_times, branches):
            assert base is phis[t]
            for s in fluxes.oracle_times(t, config.dtau_fd):
                # two steps of (s - t) / 2, which is +-dtau_fd / 2 up to the
                # rounding of t +- dtau_fd
                assert (s - t) / 2 == pytest.approx(np.sign(s - t) * config.dtau_fd / 2, rel=1e-12)
                expected = fluxes.evolve_wavefunction(phis[t], config.potential, (s - t) / 2, 2)
                assert np.array_equal(states[s].values, expected.values)
                assert states[s].tau == s

        # At tau = 0 the branches are the first legs of a single sweep from
        # tau = 0 over every oracle time of the run, so the oracle values
        # are that sweep's.
        old_sweep = fluxes.propagate_states(
            phi0, config.potential,
            [s for t in config.output_times for s in fluxes.oracle_times(t, config.dtau_fd)],
            min(config.dtau, config.dtau_fd / 2),
        )
        rates = fluxes.oracle_rates(
            old_sweep, 0.0, regions[0], config.beta_list, config.dtau_fd, config.epsilon_entropy
        )
        for q in fluxes.quantities(config.beta_list):
            assert q.entry(report["times"][0])["oracle"] == rates[q.key]


#: Runs SMALL through cli.run with every scipy import refused, then lists
#: any scipy module that was loaded all the same.
NO_SCIPY_RUN = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused in this run")
        return None

sys.meta_path.insert(0, RefuseScipy())
from wignerflow import cli
cli.run(cli.parse_config(json.loads(sys.argv[1])), sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_a_run_needs_no_scipy(tmp_path):
    src = str(Path(wignerflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, json.dumps(SMALL), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "report.json").is_file()


def test_orbit_csv_matches_the_row_by_row_writer(tmp_path):
    # the column-wise writer gives the same bytes as one repr(float) per cell
    config = parse_config(SMALL)
    cli.run(config, tmp_path / "out")
    o = solve_orbit(config.potential, config.orbit_start, config.orbit_samples, config.orbit_tau_limit, config.grid.x_max)
    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "x_C", "k_C", "n_x", "n_k", "dl"])
        for i in range(o.x.size):
            wr.writerow([
                repr(float(o.tau[i])), repr(float(o.x[i])), repr(float(o.k[i])),
                repr(float(o.nx[i])), repr(float(o.nk[i])), repr(float(o.dl[i])),
            ])
    written = (tmp_path / "out" / "orbit.csv").read_bytes()
    assert written == reference.read_bytes()
    assert len(written.splitlines()) == 1 + config.orbit_samples


def test_field_csv_matches_the_row_by_row_writer(tmp_path):
    # the column-wise writer gives the same bytes as one repr(float) per node
    config = parse_config({**SMALL, "output_times": [0.0]})
    cli.run(config, tmp_path / "out", emit_fields=True)
    w = wigner_transform(evaluate_state(config.state, config.coordinate_grid, 0.0), config.grid)
    X, K = config.grid.meshes()
    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "k", "W"])
        for xi, ki, wi in zip(X.ravel(), K.ravel(), w.values.ravel()):
            wr.writerow([repr(float(xi)), repr(float(ki)), repr(float(wi))])
    written = (tmp_path / "out" / "fields" / "W_0.000000.csv").read_bytes()
    assert written == reference.read_bytes()
    assert len(written.splitlines()) == 1 + config.grid.n_x * config.grid.n_k


def test_orbit_dtau_is_validated_and_has_no_effect():
    # the orbit has no time step; the key stays accepted so old configs run
    orbit = {"x0": 1.0, "k0": 0.0}
    with_dtau, without = parse_config({**SMALL, "orbit": {**orbit, "dtau": 5e-3}}), parse_config(SMALL)
    assert with_dtau.echo["orbit"]["dtau"] == 5e-3
    with_dtau.echo = without.echo = {}
    assert with_dtau == without
    with pytest.raises(wignerflow.ConfigError, match="orbit dtau"):
        parse_config({**SMALL, "orbit": {**orbit, "dtau": 0.0}})
