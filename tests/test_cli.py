"""Command-line contract: exit codes, one-line errors and strict-JSON reports."""

import csv
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wignerflow
from wignerflow import cli, fluxes, states
from wignerflow.classical import solve_orbit
from wignerflow.cli import main, parse_config
from wignerflow.states import evaluate_state, wigner_transform

#: The benchmark's workload configurations.
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"

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
    "boolean nu_max": {"nu_max": True},
    "boolean x0": {"state": {"kind": "coherent", "x0": True, "k0": 0.5}},
    "boolean beta": {"beta_list": [True]},
    "all-zero superposition": {"state": {"kind": "superposition", "terms": [{"re": 0.0, "n": 0}, {"n": 1}]}},
    "negative superposition index": {"state": {"kind": "superposition", "terms": [{"re": 1.0, "n": -1}]}},
    "superposition index beyond 512": {"state": {"kind": "superposition", "terms": [{"re": 1.0, "n": 513}]}},
    # counts the parser rejects before anything of their size is allocated
    "grid size of 1e300": {"grid": {"n_x": 1e300}},
    "grid size beyond the float range": {"grid": {"n_x": 10**400}},
    "superposition index of 1e300": {"state": {"kind": "superposition", "terms": [{"re": 1.0, "n": 1e300}]}},
    "phase-space nodes beyond the ceiling": {"grid": {"n_x": 4096, "n_k": 2048}},
    "coordinate nodes beyond the ceiling": {"coordinate_grid": {"n": 2**17}},
    "orbit samples beyond the ceiling": {"orbit": {"x0": 1.0, "k0": 0.0, "samples": 2**21}},
    "time nodes beyond the ceiling": {"accumulation": {"enabled": True, "time_nodes": 2**13}},
}

#: Configs that pass validation and are rejected in the run: changes and the stage that rejects them.
REJECTED_IN_RUN = {
    "state the eigenbasis cannot resolve": (
        {"state": {"kind": "coherent", "x0": 1.0, "k0": 40.0}}, "states.propagator",
    ),
    "state that reaches the grid's edge": (
        {"potential": {"kind": "harmonic"}, "state": {"kind": "coherent", "x0": 0.0, "k0": 20.0}},
        "states.propagator",
    ),
    "potential non-finite on the eigenbasis": (
        {"potential": {"kind": "quartic_perturbed", "lambda": 1e306}}, "states.propagator",
    ),
    # k reaches 7.7 on the grid of k_max = 8 and spacing 16/63: inside the grid, not two cells inside
    "orbit inside the two-cell margin": ({"orbit": {"x0": 1.0, "k0": 7.7}}, "fluxes.instantaneous"),
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


@pytest.mark.parametrize("changes", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_error_line_is_short(changes, tmp_path, capsys):
    # a value is named, not spelled out: 1e300 as an integer has 301 digits
    config = write_config(tmp_path, **changes)
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert len(capsys.readouterr().err.encode()) < 200


def test_count_ceilings_admit_every_workload():
    for name, workload in json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"].items():
        config = parse_config(workload["config"])
        assert config.grid.n_x * config.grid.n_k <= cli.MAX_PHASE_NODES, name
        assert config.coordinate_grid.n <= cli.MAX_COORDINATE_NODES, name
        assert config.orbit_samples <= cli.MAX_ORBIT_SAMPLES, name
        assert config.accumulation_nodes <= cli.MAX_TIME_NODES, name


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


def test_repeated_output_time_repeats_its_block_and_row(tmp_path):
    # both blocks are made from the propagator's state at tau = 0.25
    config = write_config(tmp_path, output_times=[0.0, 0.25, 0.25])
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
    blocks = json.loads((out / "report.json").read_text(encoding="utf-8"))["times"]
    assert [blk["tau"] for blk in blocks] == [0.0, 0.25, 0.25]
    assert blocks[1] == blocks[2]
    assert blocks[0] != blocks[1]
    with (out / "fluxes.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[2] == rows[3]


def test_one_eigendecomposition_serves_every_state_of_a_run(tmp_path, monkeypatch):
    # three output times, their six oracle times and five accumulation
    # nodes all read one expansion; no split step is taken.  On the
    # 512-node grid the basis is refined while it is built: strides 4, 2
    # and 1 are diagonalised, and no eigh runs after that.
    calls, built = Counter(), []

    def eigh(matrix, _eigh=np.linalg.eigh):
        calls["eigh"] += 1
        return _eigh(matrix)

    class Counting(states.EigenPropagator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(calls["eigh"])

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(cli, "EigenPropagator", Counting)
    monkeypatch.setattr(states, "evolve_wavefunction", lambda *args: pytest.fail("a split step ran"))
    config = parse_config({**SMALL, "output_times": [0.0, 0.25, 0.5], "accumulation": {"enabled": True, "time_nodes": 4}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.run(config, tmp_path / "out")
    assert not [w for w in caught if "unnormalized" in str(w.message)]
    assert built == [3]
    assert calls["eigh"] == 3


def test_oracle_differentiates_the_state_whose_flux_it_checks(tmp_path, monkeypatch):
    # the output state at tau and the oracle's states at tau -/+ dtau_fd
    # come from the one propagator of the run
    built, asked = [], []

    class Recording(states.EigenPropagator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        def state(self, tau):
            asked.append(tau)
            return super().state(tau)

    monkeypatch.setattr(cli, "EigenPropagator", Recording)
    config = parse_config({**SMALL, "output_times": [0.0, 0.5]})
    out = cli.run(config, tmp_path / "out")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    (propagator,) = built
    assert asked == [s for t in config.output_times for s in (t, *fluxes.oracle_times(t, config.dtau_fd))]
    region = fluxes.OrbitRegion(
        solve_orbit(config.potential, config.orbit_start, config.orbit_samples, config.orbit_tau_limit, config.grid.x_max),
        config.grid,
    )
    for t, block in zip(config.output_times, report["times"]):
        rates = fluxes.oracle_rates(propagator, t, region, config.beta_list, config.dtau_fd, config.epsilon_entropy)
        for q in fluxes.quantities(config.beta_list):
            if not isinstance(rates[q.key], Exception):
                assert q.entry(block)["oracle"] == rates[q.key]


def test_every_div_w_reads_the_configured_epsilon_mask(tmp_path, monkeypatch):
    # the output blocks and every accumulation node mask the same quotient
    seen = []

    def recorded(w, dj_k, epsilon, window, _div_w=fluxes.div_w):
        seen.append(epsilon)
        return _div_w(w, dj_k, epsilon, window)

    monkeypatch.setattr(fluxes, "div_w", recorded)
    config = parse_config({**SMALL, "epsilon_mask": 1e-3, "accumulation": {"enabled": True, "time_nodes": 4}})
    cli.run(config, tmp_path / "out")
    assert len(seen) == len(SMALL["output_times"]) + 5
    assert seen == [1e-3] * len(seen)


def test_every_snapshot_reads_the_configured_epsilon_entropy(tmp_path, monkeypatch):
    # the output blocks, both oracle states of each time and every
    # accumulation node read the same floor
    seen = []

    class Recording(fluxes.Snapshot):
        def __post_init__(self):
            super().__post_init__()
            seen.append(self.epsilon_entropy)

    monkeypatch.setattr(fluxes, "Snapshot", Recording)
    config = parse_config({**SMALL, "epsilon_entropy": 1e-12, "accumulation": {"enabled": True, "time_nodes": 4}})
    cli.run(config, tmp_path / "out")
    assert len(seen) == 3 * len(SMALL["output_times"]) + 5
    assert seen == [1e-12] * len(seen)


def test_volume_term_reads_the_configured_epsilon_entropy(tmp_path):
    # at tau = 0 the transform's negative nodes are rounding noise, above
    # the default floor of 1e-30 and below 1e-12; the beta = 0.5 volume term
    # reads the configured floor, as the row's loop and region integral do
    entries = {}
    for floor in (None, 1e-12):
        raw = {**SMALL, "output_times": [0.0]} | ({} if floor is None else {"epsilon_entropy": floor})
        out = cli.run(parse_config(raw), tmp_path / str(floor))
        entries[floor] = json.loads((out / "report.json").read_text(encoding="utf-8"))["times"][0]["renyi"]["0.5"]
    assert "negative nodes above floor" in entries[None]["volume_term_rejected"]
    assert "volume_term_rejected" not in entries[1e-12]
    assert {"loop", "volume_term", "full", "region_power_integral"} <= entries[1e-12].keys()


def test_report_records_the_propagator_health(tmp_path):
    config = parse_config(SMALL)
    report = json.loads((cli.run(config, tmp_path / "out") / "report.json").read_text(encoding="utf-8"))
    health = report["propagator"]
    # every node of the central half of the 512-node grid: strides 4 and 2
    # leave a resolution share above the limit
    assert health["basis_nodes"] == 256
    x = config.coordinate_grid.x
    assert health["x_range"] == [x[128], x[383]]
    assert 0.0 <= health["resolution_share"] <= states.RESOLUTION_LIMIT
    assert 0.0 < health["edge_bound"] <= states.EDGE_LIMIT


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


#: fluxes.csv's columns for beta_list (0.5, 2, 3), each with the block entry it reads.
FLUX_COLUMNS = {
    "tau": ("tau",),
    "sigma_flux": ("sigma", "loop"), "sigma_oracle": ("sigma", "oracle"), "sigma_rel_dev": ("sigma", "rel_dev"),
    "svn_flux": ("svn", "loop"), "svn_volume_term": ("svn", "volume_term"), "svn_full": ("svn", "full"),
    "svn_oracle": ("svn", "oracle"), "svn_rel_dev": ("svn", "rel_dev"),
    "purity_flux": ("purity", "loop"), "purity_volume_term": ("purity", "volume_term"),
    "purity_full": ("purity", "full"), "purity_oracle_dP": ("purity", "oracle"),
    "purity_oracle_2pi_adjusted": ("purity", "oracle_2pi_adjusted"), "purity_rel_dev": ("purity", "rel_dev"),
    **{
        f"renyi_{column}_{tag}": ("renyi", tag, key)
        for tag in ("0.5", "2", "3")
        for column, key in (
            ("flux", "loop"), ("volume_term", "volume_term"), ("full", "full"),
            ("rate", "rate"), ("oracle", "oracle"), ("rel_dev", "rel_dev"),
        )
    },
}


def test_flux_csv_cells_are_the_block_entries_they_name(tmp_path):
    cli.run(parse_config({**SMALL, "beta_list": [0.5, 2, 3]}), tmp_path / "out")
    with (tmp_path / "out" / "fluxes.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == [
        "tau",
        "sigma_flux", "sigma_oracle", "sigma_rel_dev",
        "svn_flux", "svn_volume_term", "svn_full", "svn_oracle", "svn_rel_dev",
        "purity_flux", "purity_volume_term", "purity_full",
        "purity_oracle_dP", "purity_oracle_2pi_adjusted", "purity_rel_dev",
        "renyi_flux_0.5", "renyi_volume_term_0.5", "renyi_full_0.5",
        "renyi_rate_0.5", "renyi_oracle_0.5", "renyi_rel_dev_0.5",
        "renyi_flux_2", "renyi_volume_term_2", "renyi_full_2", "renyi_rate_2", "renyi_oracle_2", "renyi_rel_dev_2",
        "renyi_flux_3", "renyi_volume_term_3", "renyi_full_3", "renyi_rate_3", "renyi_oracle_3", "renyi_rel_dev_3",
    ]
    assert header == list(FLUX_COLUMNS)
    # report.json writes every non-finite value as null, as fluxes.csv writes it empty
    blocks = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["times"]
    assert len(rows) == len(blocks) == len(SMALL["output_times"])
    empty = 0
    for row, blk in zip(rows, blocks):
        for cell, path in zip(row, FLUX_COLUMNS.values(), strict=True):
            entry = blk
            for key in path[:-1]:
                entry = entry[key]
            value = entry.get(path[-1])
            assert cell == ("" if value is None else repr(float(value))), path
            empty += value is None
    # the beta = 0.5 row rejects its volume term, so some cells are empty
    assert 0 < empty < len(rows) * len(header)


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


def test_whole_grid_window_gives_the_whole_grid_outputs(tmp_path, monkeypatch):
    # SMALL's field window is its whole grid: a run whose every transform
    # fills the whole grid writes the same bytes
    config = parse_config({**SMALL, "accumulation": {"enabled": True, "time_nodes": 4}})
    orbit = solve_orbit(config.potential, config.orbit_start, config.orbit_samples, config.orbit_tau_limit, config.grid.x_max)
    assert fluxes.OrbitRegion(orbit, config.grid).field_grid is config.grid
    windowed = cli.run(config, tmp_path / "windowed")
    monkeypatch.setattr(fluxes, "field_transform", lambda phi, region: wigner_transform(phi, region.grid))
    whole = cli.run(config, tmp_path / "whole")
    for name in ("report.json", "fluxes.csv", "orbit.csv"):
        assert (windowed / name).read_bytes() == (whole / name).read_bytes(), name


def test_emitted_fields_leave_the_outputs_unchanged(tmp_path):
    # --emit-fields transforms the whole grid; the snapshots read its field
    # window, which equals the windowed transform bit for bit
    raw = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]["cat_nodal"]["config"]
    config = parse_config({**raw, "output_times": [2.0]})
    plain = cli.run(config, tmp_path / "plain")
    emitted = cli.run(config, tmp_path / "emitted", emit_fields=True)
    assert len((emitted / "fields" / "W_2.000000.csv").read_text().splitlines()) == 1 + 256 * 256
    for name in ("report.json", "fluxes.csv"):
        assert (plain / name).read_bytes() == (emitted / name).read_bytes(), name


def test_orbit_dtau_is_validated_and_has_no_effect():
    # the orbit has no time step; the key stays accepted so old configs run
    orbit = {"x0": 1.0, "k0": 0.0}
    with_dtau, without = parse_config({**SMALL, "orbit": {**orbit, "dtau": 5e-3}}), parse_config(SMALL)
    assert with_dtau.echo["orbit"]["dtau"] == 5e-3
    with_dtau.echo = without.echo = {}
    assert with_dtau == without
    with pytest.raises(wignerflow.ConfigError, match="orbit dtau"):
        parse_config({**SMALL, "orbit": {**orbit, "dtau": 0.0}})


@pytest.mark.parametrize("changes, where", [
    ({"dtau": 5e-3}, "dtau"),
    ({"accumulation": {"enabled": True, "dtau": 5e-3}}, "accumulation"),
    ({"units": {"dt": 5e-3}}, "units"),
], ids=["dtau", "accumulation.dtau", "units.dt"])
def test_time_steps_are_validated_and_have_no_effect(changes, where):
    # every state comes from one eigen expansion; the keys stay accepted so old configs run
    base = {**SMALL, "accumulation": {"enabled": True}} if where == "accumulation" else SMALL
    with_step, without = parse_config({**SMALL, **changes}), parse_config(base)
    assert with_step.echo[where] == changes[where]
    with_step.echo = without.echo = {}
    assert with_step == without
    zero = {key: {**value, ("dt" if key == "units" else "dtau"): 0.0} if isinstance(value, dict) else 0.0
            for key, value in changes.items()}
    with pytest.raises(wignerflow.ConfigError, match="dtau"):
        parse_config({**SMALL, **zero})
