"""Batch front end: JSON run configuration in, CSV/JSON reports out.

Exit codes: 0 success, 2 configuration validation failure, 3 numerical
rejection inside a module, 4 I/O failure.  Errors print a single
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fluxes as fx
from .classical import solve_orbit
from .currents import DEFAULT_NU_MAX, require_nu_max
from .errors import ConfigError, RejectionError, WignerFlowError
from .grid import CoordinateGrid, DimensionlessMap, PhaseSpaceGrid
from .observables import ENTROPY_FLOOR, require_beta
from .potentials import CATALOG, PotentialModel
from .states import StateSpec, evaluate_state, wigner_transform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_TOP_KEYS = {
    "potential", "state", "grid", "coordinate_grid", "nu_max", "epsilon_entropy",
    "epsilon_mask", "beta_list", "orbit", "dtau", "dtau_fd", "output_times",
    "accumulation", "units", "emit_fields",
}
_POTENTIAL_KEYS = {"kind", "lambda"}
_STATE_KEYS = {"kind", "n", "x0", "k0", "terms"}
_GRID_KEYS = {"x_max", "k_max", "n_x", "n_k"}
_CGRID_KEYS = {"x_max", "n"}
_ORBIT_KEYS = {"x0", "k0", "dtau", "samples", "tau_limit"}
_ACC_KEYS = {"enabled", "time_nodes", "dtau"}
_UNITS_KEYS = {"m", "omega", "hbar", "q0", "p0", "dt", "dt_fd", "t_out"}


@dataclass
class RunConfig:
    """Validated run parameters, all dimensionless."""

    potential: PotentialModel
    state: StateSpec
    grid: PhaseSpaceGrid
    coordinate_grid: CoordinateGrid
    nu_max: int
    epsilon_entropy: float
    epsilon_mask: float | None
    beta_list: tuple[float, ...]
    orbit_start: tuple[float, float]
    orbit_samples: int
    orbit_tau_limit: float
    dtau: float
    dtau_fd: float
    output_times: tuple[float, ...]
    accumulate: bool
    accumulation_nodes: int
    accumulation_dtau: float
    emit_fields: bool
    echo: dict = field(default_factory=dict)

    @property
    def dtau_oracle(self) -> float:
        """Step of the oracle's branches at tau -/+ dtau_fd: dtau, or dtau_fd / 2 if that is finer."""
        return min(self.dtau, self.dtau_fd / 2)


_MISSING = object()


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _object(value, allowed: set, where: str) -> dict:
    """A JSON object with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    _reject_unknown(value, allowed, where)
    return value


def _section(raw: dict, key: str, allowed: set, required: bool = False) -> dict:
    """Top-level section ``key`` as an object; {} when absent (or null) and optional."""
    if raw.get(key) is None and not required:
        return {}
    return _object(_require(raw, key, "top level"), allowed, key)


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {type(value).__name__}")
    return list(value)


def _finite(value, name: str, kind=float):
    """``kind(value)`` when that is a finite number (integral for int); ConfigError otherwise.

    A JSON boolean is not a number, though Python's bool converts to one.
    """
    try:
        out = kind(value)
        if not isinstance(value, bool) and math.isfinite(out) and (kind is not int or float(value) == out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    noun = "integer" if kind is int else "number"
    raise ConfigError(f"{name} must be a finite {noun}, got {value!r}")


def _path(where: str, key: str) -> str:
    return key if where == "top level" else f"{where}.{key}"


def _number(section: dict, key: str, where: str, default=_MISSING, kind=float):
    """section[key], or the default when absent, as a finite number."""
    value = _require(section, key, where) if default is _MISSING else section.get(key, default)
    return _finite(value, _path(where, key), kind)


def _flag(section: dict, key: str, where: str) -> bool:
    """section[key] as a JSON boolean, False when absent."""
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{_path(where, key)} must be true or false, got {value!r}")
    return value


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document against every module precondition.

    A module that rejects a configured value reports it as a ConfigError.
    """
    try:
        return _parse(raw)
    except RejectionError as exc:
        raise ConfigError(str(exc)) from exc


def _parse(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _reject_unknown(raw, _TOP_KEYS, "top level")

    units = _section(raw, "units", _UNITS_KEYS)
    umap = DimensionlessMap(*(_number(units, key, "units", 1.0) for key in ("m", "omega", "hbar")))

    pot_sec = _section(raw, "potential", _POTENTIAL_KEYS, required=True)
    kind = _require(pot_sec, "kind", "potential")
    if not isinstance(kind, str) or kind not in CATALOG:
        raise ConfigError(f"unknown potential kind {kind!r}; catalog: {sorted(CATALOG)}")
    if kind in ("quartic_perturbed", "double_well"):
        potential = CATALOG[kind](_number(pot_sec, "lambda", "potential"))
    else:
        if "lambda" in pot_sec:
            raise ConfigError(f"potential {kind!r} takes no lambda parameter")
        potential = CATALOG[kind]()

    state_sec = _section(raw, "state", _STATE_KEYS, required=True)
    skind = _require(state_sec, "kind", "state")
    if skind == "harmonic_eigenstate":
        state = StateSpec(skind, n=_number(state_sec, "n", "state", kind=int))
    elif skind in ("coherent", "cat"):
        state = StateSpec(skind, x0=_number(state_sec, "x0", "state"), k0=_number(state_sec, "k0", "state"))
    elif skind == "superposition":
        parsed = []
        for t in _list(_require(state_sec, "terms", "state"), "state.terms"):
            t = _object(t, {"re", "im", "n"}, "state.terms[]")
            coeff = complex(_number(t, "re", "state.terms[]", 0.0), _number(t, "im", "state.terms[]", 0.0))
            parsed.append((coeff, _number(t, "n", "state.terms[]", kind=int)))
        state = StateSpec(skind, terms=tuple(parsed))
    else:
        raise ConfigError(f"unknown state kind {skind!r}")

    gsec = _section(raw, "grid", _GRID_KEYS)
    csec = _section(raw, "coordinate_grid", _CGRID_KEYS)
    grid = PhaseSpaceGrid.centered(
        _number(gsec, "x_max", "grid", 8.0), _number(gsec, "k_max", "grid", 8.0),
        _number(gsec, "n_x", "grid", 256, int), _number(gsec, "n_k", "grid", 256, int),
    )
    cgrid = CoordinateGrid(_number(csec, "x_max", "coordinate_grid", 16.0), _number(csec, "n", "coordinate_grid", 2048, int))

    nu_max = _number(raw, "nu_max", "top level", DEFAULT_NU_MAX, int)
    require_nu_max(nu_max)
    epsilon_entropy = _number(raw, "epsilon_entropy", "top level", ENTROPY_FLOOR)
    if epsilon_entropy <= 0:
        raise ConfigError(f"epsilon_entropy must be positive, got {epsilon_entropy}")
    epsilon_mask = raw.get("epsilon_mask")
    if epsilon_mask is not None:
        epsilon_mask = _finite(epsilon_mask, "epsilon_mask")
        if epsilon_mask <= 0:
            raise ConfigError(f"epsilon_mask must be positive, got {epsilon_mask}")

    betas = tuple(_finite(b, "beta_list[]") for b in _list(raw.get("beta_list", (0.5, 2.0, 3.0)), "beta_list"))
    tagged = {}
    for b in betas:
        require_beta(b)
        tag = fx.renyi(b).tag
        if tag in tagged:
            raise ConfigError(f"beta_list values {tagged[tag]!r} and {b!r} share the report tag {tag!r}")
        tagged[tag] = b

    osec = _section(raw, "orbit", _ORBIT_KEYS, required=True)
    x0 = _number(osec, "x0", "orbit")
    k0 = _number(osec, "k0", "orbit")
    if "q0" in units or "p0" in units:
        x0 = umap.x_from_q(_number(units, "q0", "units", umap.q_from_x(x0)))
        k0 = umap.k_from_p(_number(units, "p0", "units", umap.p_from_k(k0)))
    orbit_dtau = _number(osec, "dtau", "orbit", 1e-4)  # validated only: the orbit has no time step
    orbit_samples = _number(osec, "samples", "orbit", 4096, int)
    orbit_tau_limit = _number(osec, "tau_limit", "orbit", 1e3)
    if orbit_dtau <= 0 or orbit_samples < 16 or orbit_tau_limit <= 0:
        raise ConfigError("orbit dtau, samples and tau_limit must be positive (samples >= 16)")
    grad = np.hypot(k0, float(potential.derivative(x0, 1)))
    if grad <= 1e-12:
        raise ConfigError(f"orbit start ({x0}, {k0}) is an equilibrium point")

    dtau = _number(raw, "dtau", "top level", 1e-3)
    dtau_fd = _number(raw, "dtau_fd", "top level", 1e-3)
    if "dt" in units:
        dtau = umap.tau_from_t(_number(units, "dt", "units"))
    if "dt_fd" in units:
        dtau_fd = umap.tau_from_t(_number(units, "dt_fd", "units"))
    if dtau <= 0 or dtau_fd <= 0:
        raise ConfigError("dtau and dtau_fd must be positive")

    if "t_out" in units:
        times = tuple(umap.tau_from_t(_finite(t, "units.t_out[]")) for t in _list(units["t_out"], "units.t_out"))
    else:
        times = tuple(_finite(t, "output_times[]") for t in _list(raw.get("output_times", [0.0]), "output_times"))
    if not times or any(t < 0 for t in times) or list(times) != sorted(times):
        raise ConfigError("output_times must be a non-empty ascending list of times >= 0")

    acc = _section(raw, "accumulation", _ACC_KEYS)
    accumulate = _flag(acc, "enabled", "accumulation")
    acc_nodes = _number(acc, "time_nodes", "accumulation", 32, int)
    acc_dtau = _number(acc, "dtau", "accumulation", dtau)
    if accumulate and (acc_nodes < 4 or acc_dtau <= 0):
        raise ConfigError("accumulation needs time_nodes >= 4 and a positive dtau")

    config = RunConfig(
        potential=potential,
        state=state,
        grid=grid,
        coordinate_grid=cgrid,
        nu_max=nu_max,
        epsilon_entropy=epsilon_entropy,
        epsilon_mask=epsilon_mask,
        beta_list=betas,
        orbit_start=(x0, k0),
        orbit_samples=orbit_samples,
        orbit_tau_limit=orbit_tau_limit,
        dtau=dtau,
        dtau_fd=dtau_fd,
        output_times=times,
        accumulate=accumulate,
        accumulation_nodes=acc_nodes,
        accumulation_dtau=acc_dtau,
        emit_fields=_flag(raw, "emit_fields", "top level"),
        echo=raw,
    )
    # every leg run() steps: from the previous output time (tau = 0 first)
    # to t by dtau, and from t to t -/+ dtau_fd by the oracle's step
    for prev, t in zip((0.0, *times), times):
        fx.leg_steps(prev, t, dtau)
        for s in fx.oracle_times(t, dtau_fd):
            fx.leg_steps(t, s, config.dtau_oracle)
    return config


def load_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


@contextmanager
def _stage(name: str):
    try:
        yield
    except RejectionError as exc:
        raise RejectionError(f"[{name}] {exc}") from exc


def _finite_or_null(value):
    """The report with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not np.isfinite(value):
        return ""
    return repr(float(value))


def _flux_csv_rows(times_blocks: list, betas) -> tuple[list[str], list[list[str]]]:
    header = [
        "tau",
        "sigma_flux", "sigma_oracle", "sigma_rel_dev",
        "svn_flux", "svn_volume_term", "svn_full", "svn_oracle", "svn_rel_dev",
        "purity_flux", "purity_volume_term", "purity_full",
        "purity_oracle_dP", "purity_oracle_2pi_adjusted", "purity_rel_dev",
    ]
    renyi_rows = [fx.renyi(b) for b in betas]
    for q in renyi_rows:
        header += [
            f"renyi_flux_{q.tag}", f"renyi_volume_term_{q.tag}", f"renyi_full_{q.tag}",
            f"renyi_rate_{q.tag}", f"renyi_oracle_{q.tag}", f"renyi_rel_dev_{q.tag}",
        ]
    rows = []
    for blk in times_blocks:
        row = [_fmt(blk["tau"])]
        s = blk["sigma"]
        row += [_fmt(s["loop"]), _fmt(s.get("oracle")), _fmt(s.get("rel_dev"))]
        v = blk["svn"]
        row += [_fmt(v["loop"]), _fmt(v["volume_term"]), _fmt(v["full"]),
                _fmt(v.get("oracle")), _fmt(v.get("rel_dev"))]
        p = blk["purity"]
        row += [_fmt(p["loop"]), _fmt(p["volume_term"]), _fmt(p["full"]),
                _fmt(p.get("oracle")), _fmt(p.get("oracle_2pi_adjusted")), _fmt(p.get("rel_dev"))]
        for q in renyi_rows:
            e = q.entry(blk)
            row += [_fmt(e.get("loop")), _fmt(e.get("volume_term")), _fmt(e.get("full")),
                    _fmt(e.get("rate")), _fmt(e.get("oracle")), _fmt(e.get("rel_dev"))]
        rows.append(row)
    return header, rows


def _write_columns(path: Path, header: list[str], blocks) -> None:
    """A CSV of float columns, one repr per cell, written a block of rows at a time.

    Each block is a tuple of equal-length 1-D arrays, the columns of its
    rows.
    """
    with path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for columns in blocks:
            wr.writerows(zip(*(map(repr, c.tolist()) for c in columns)))


def run(config: RunConfig, out_dir: str | Path, emit_fields: bool = False, quiet: bool = True) -> Path:
    """Execute one configured run and write report.json, fluxes.csv, orbit.csv.

    The output states come from fluxes.sweep_ahead, which takes the split
    steps beside the snapshots, and each output time's snapshot and oracle
    are evaluated as soon as its state arrives.  So the first rejection in
    time order is the one reported: a snapshot or oracle rejection at an
    output time comes before a propagation rejection
    ([states.evolve_wavefunction]) of any later leg, and the accumulation
    sweep starts after the last output time.  Any rejection ends the run
    with one RejectionError, tagged with its stage.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit = emit_fields or config.emit_fields

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    with _stage("classical.solve_orbit"):
        orbit = solve_orbit(
            config.potential,
            config.orbit_start,
            n_samples=config.orbit_samples,
            tau_limit=config.orbit_tau_limit,
            x_limit=config.grid.x_max,
        )
    say(f"orbit: T={orbit.period:.6f} E={orbit.energy:.6f}")
    with _stage("fluxes.orbit_region"):
        region = fx.OrbitRegion(orbit, config.grid)

    blocks = []
    field_files = []
    with _stage("states.evaluate_state"):
        phi0 = evaluate_state(config.state, config.coordinate_grid, 0.0)
    # The output states stream in as the sweep reaches them, one per
    # distinct time; a repeated time reuses the state before it.  The
    # oracle's states at tau -/+ dtau_fd branch off the state at tau whose
    # fluxes they check, at config.dtau_oracle.
    with closing(fx.sweep_ahead(phi0, config.potential, config.output_times, config.dtau)) as states:
        reached = None
        for t in config.output_times:
            if t != reached:
                with _stage("states.evolve_wavefunction"):
                    reached, phi = next(states)
            with _stage("states.wigner_transform"):
                w = wigner_transform(phi, config.grid)
            with _stage("fluxes.instantaneous"):
                blk = fx.instantaneous_block(
                    w, orbit, config.potential, config.nu_max, config.beta_list,
                    config.epsilon_entropy, config.epsilon_mask, region,
                )
            with _stage("fluxes.oracle"):
                oracle_phis = fx.propagate_states(
                    phi, config.potential, fx.oracle_times(t, config.dtau_fd), config.dtau_oracle
                )
                fx.attach_oracles(blk, oracle_phis, region, config.beta_list, config.dtau_fd, config.epsilon_entropy)
            blocks.append(blk)
            say(f"tau={t:g}: sigma={blk['sigma']['loop']:.3e} (dev {blk['sigma']['rel_dev']:.2%})")
            if emit:
                fdir = out / "fields"
                fdir.mkdir(exist_ok=True)
                X, K = config.grid.meshes()
                path = fdir / f"W_{t:.6f}.csv"
                _write_columns(path, ["x", "k", "W"], zip(X, K, w.values))
                field_files.append(path.name)
        with _stage("states.evolve_wavefunction"):
            next(states, None)  # the sweep's end, so that its worker exits of itself

    accumulated = None
    if config.accumulate:
        with _stage("fluxes.period_accumulation"):
            accumulated = fx.period_accumulation(
                config.state, config.potential, orbit, config.nu_max, config.beta_list,
                pgrid=config.grid, cgrid=config.coordinate_grid,
                n_nodes=config.accumulation_nodes, dtau_evolve=config.accumulation_dtau,
                epsilon_entropy=config.epsilon_entropy, region=region,
            )

    report = {
        "config": config.echo,
        "orbit": {
            "start": list(config.orbit_start),
            "energy": orbit.energy,
            "period": orbit.period,
            "samples": int(orbit.x.size),
            "single_well_asymmetric": bool(orbit.single_well_asymmetric),
        },
        "times": blocks,
        "accumulated": accumulated,
    }
    (out / "report.json").write_text(
        json.dumps(_finite_or_null(report), indent=2, allow_nan=False), encoding="utf-8"
    )

    header, rows = _flux_csv_rows(blocks, config.beta_list)
    with (out / "fluxes.csv").open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)

    _write_columns(
        out / "orbit.csv", ["tau", "x_C", "k_C", "n_x", "n_k", "dl"],
        [(orbit.tau, orbit.x, orbit.k, orbit.nx, orbit.nk, orbit.dl)],
    )
    say(f"wrote {out / 'report.json'}, fluxes.csv, orbit.csv"
        + (f", {len(field_files)} field dump(s)" if field_files else ""))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerflow",
        description="Phase-space flux simulator: Wigner currents and continuity-equation quantifiers.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default="wignerflow-run", help="output directory")
    parser.add_argument("--emit-fields", action="store_true", help="dump W(x,k) CSV per output time")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    def fail(code: int, stage: str, message: str) -> int:
        print(f"wignerflow-error code={code} stage={stage} message={message}", file=sys.stderr)
        return code

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "cli.validate", str(exc))
    except OSError as exc:
        return fail(EXIT_IO, "cli.load_config", str(exc))

    try:
        run(config, args.out, emit_fields=args.emit_fields, quiet=args.quiet)
    except RejectionError as exc:
        return fail(EXIT_NUMERICAL, "run", str(exc))
    except OSError as exc:
        return fail(EXIT_IO, "cli.write", str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
