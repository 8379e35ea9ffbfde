"""End-to-end and per-layer benchmark of the wignerflow CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload series|period|cat_nodal|all --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's config runs as real ``wignerflow --config``
child processes, one at a time (closed loop, one client, OpenBLAS limited
to one thread), for S seconds.
Set-up time is the median of fresh interpreters that import
``wignerflow.cli`` and load the config.  Every run's outputs are checked.
The last line of stdout is one JSON object with the end-to-end metrics.

With ``--trace 1`` the config runs twice in-process through ``cli.run``:
untraced, then with every layer wrapped by ``perfbench/inproc.py``.  The
last line then holds the per-layer metrics: calls, busy and self time,
rejections, work counters, waste ratios and accuracy probes.

The program is imported from ``src/`` beside this directory; nothing is
installed.  Outputs go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))

#: Fresh-interpreter set-ups timed per run.
SETUP_REPEATS = 3
#: Timed CLI runs per invocation even when one run outlasts --seconds.
MIN_RUNS = 2
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Largest dev.sigma a correct run may show, as a share of the oracle's
#: scale.  Seed-0 runs show 1e-4 (snapshots) and 0.035 (period balance,
#: limited by its 64-node time quadrature); a sign or term error shows ~1.
SIGMA_REL_LIMIT = 0.1
ORBIT_ROWS = 4096
#: Deviations gated end to end.  dev.svn is reported per layer only: it is
#: dominated by ln|W| at noise-level nodes and moves by percents when x0
#: moves by 1e-4, so no bound can hold it steady across seeds.
GATED_DEVS = ("dev.sigma", "dev.purity")

CLI_CODE = "import sys; from wignerflow.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys, time\n"
    "from wignerflow.cli import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)


def make_config(name: str, seed: int) -> dict:
    """The workload's config, with the state displaced by the seed rule."""
    config = json.loads(json.dumps(WORKLOADS["workloads"][name]["config"]))
    if seed != 0:
        rng = random.Random(seed)
        amp = WORKLOADS["seed_displacement"]
        state = config["state"]
        state["x0"] += rng.uniform(-amp, amp)
        if state["k0"] != 0.0:
            state["k0"] += rng.uniform(-amp, amp)
    return config


def snapshot_count(config: dict) -> int:
    acc = config.get("accumulation", {})
    return len(config["output_times"]) + (acc["time_nodes"] + 1 if acc.get("enabled") else 0)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: where the second core is shared with other work, it
    # comes and goes for minutes at a time, which flips a run's wall time by
    # up to 30 % while its CPU time stays within a few percent.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(args: list[str], log: Path, stdout=None):
    """Run a python3 child to exit; return (exit code, wall seconds, rusage, t_spawn)."""
    with log.open("w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdout=stdout if stdout is not None else subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, t0


def time_setup(cfg_path: Path, log: Path) -> float:
    """Spawn-to-return time of ``import wignerflow.cli`` plus ``load_config``."""
    out = log.with_suffix(".out")
    with out.open("w") as fh:
        code, _, _, t0 = spawn(["-c", SETUP_CODE, str(cfg_path)], log, stdout=fh)
    if code != 0:
        raise RuntimeError(f"set-up child exited {code}: {log.read_text()[-2000:]}")
    return float(out.read_text().strip()) - t0


class _NonFinite:
    """json parse_constant hook that keeps NaN/Infinity and counts them."""

    def __init__(self):
        self.count = 0

    def __call__(self, token: str) -> float:
        self.count += 1
        return float(token.replace("Infinity", "inf"))


def _entries(report: dict):
    for blk in report["times"]:
        yield blk["sigma"]
        yield blk["svn"]
        yield blk["purity"]
        yield from blk["renyi"].values()
    for value in (report.get("accumulated") or {}).values():
        if isinstance(value, dict):
            yield value


def _failed(entry: dict) -> bool:
    return any(k == "rejected" or k.endswith("_rejected") for k in entry)


def summarize_report(report: dict) -> dict:
    """Failed flux entries and absolute flux-vs-oracle deviations of one report."""
    entries = list(_entries(report))
    acc = report.get("accumulated")
    if acc:
        dev = {q: abs(acc[q]["balance"] - acc[q]["direct_change"]) for q in ("sigma", "svn", "purity")}
        sigma_scale = abs(acc["sigma"]["direct_change"])
    else:
        pairs = {"sigma": "oracle", "svn": "oracle", "purity": "oracle_2pi_adjusted"}
        dev = {q: max(abs(b[q]["full"] - b[q][ref]) for b in report["times"]) for q, ref in pairs.items()}
        sigma_scale = max(abs(b["sigma"]["oracle"]) for b in report["times"])
    return {
        "sigma_scale": sigma_scale,
        "entries": len(entries),
        "failed_entries": sum(_failed(e) for e in entries),
        **{f"dev.{q}": v for q, v in dev.items()},
    }


def check_outputs(out: Path, config: dict) -> tuple[list[str], dict | None]:
    """Problems with one run's output files, and the summary of its report."""
    problems = []
    for name in ("report.json", "fluxes.csv", "orbit.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems, None
    with (out / "fluxes.csv").open(newline="") as fh:
        flux_rows = len(list(csv.reader(fh))) - 1
    if flux_rows != len(config["output_times"]):
        problems.append(f"fluxes.csv has {flux_rows} rows, expected {len(config['output_times'])}")
    with (out / "orbit.csv").open(newline="") as fh:
        orbit_rows = len(list(csv.reader(fh))) - 1
    if orbit_rows != ORBIT_ROWS:
        problems.append(f"orbit.csv has {orbit_rows} rows, expected {ORBIT_ROWS}")
    hook = _NonFinite()
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"), parse_constant=hook)
        summary = summarize_report(report)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"report.json unreadable: {exc!r}"], None
    summary["nonfinite_values"] = hook.count
    taus = [b["tau"] for b in report["times"]]
    if taus != [float(t) for t in config["output_times"]]:
        problems.append(f"report times {taus} differ from output_times")
    if not summary["dev.sigma"] <= SIGMA_REL_LIMIT * summary["sigma_scale"]:
        problems.append(f"probability flux misses its oracle by {summary['dev.sigma']:.3e}, "
                        f"over {SIGMA_REL_LIMIT:g} of its scale {summary['sigma_scale']:.3e}")
    return problems, summary


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(name: str, config: dict, cfg_path: Path, seconds: float, work: Path) -> dict:
    snapshots = snapshot_count(config)
    runs, summaries, problems = [], [], []
    start = time.monotonic()
    while True:
        i = len(runs)
        out = work / f"run-{i}"
        code, wall, usage, _ = spawn(
            ["-c", CLI_CODE, "--config", str(cfg_path), "--out", str(out), "--quiet"],
            work / f"run-{i}.log",
        )
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0
        run = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb, "ok": False}
        runs.append(run)
        print(f"{name} run {i}: exit {code}, wall {wall:.3f} s, cpu {cpu:.3f} s, peak rss {rss_mb:.1f} MB")
        if code != 0:
            problems.append(f"run {i} exited {code}: {(work / f'run-{i}.log').read_text()[-2000:]}")
        else:
            found, summary = check_outputs(out, config)
            problems += [f"run {i}: {p}" for p in found]
            if summary is not None:
                summaries.append(summary)
            run["ok"] = not found
        if len(runs) >= MIN_RUNS and time.monotonic() - start >= seconds:
            break

    # Timed after the runs, which have compiled the bytecode and filled the
    # file cache that every user's set-up finds warm as well.
    setups = [time_setup(cfg_path, work / f"setup-{i}.log") for i in range(SETUP_REPEATS)]
    if any(s != summaries[0] for s in summaries[1:]):
        problems.append(f"report numbers differ between runs of the same config: {summaries}")
    walls = [r["wall_s"] for r in runs]
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    first = summaries[0] if summaries else None
    # A run that exits non-zero fails every flux entry it should have produced.
    entries_per_run = first["entries"] if first else 1
    failed_entries = sum(s["failed_entries"] for s in summaries) + entries_per_run * (len(runs) - len(summaries))
    failed_share = failed_entries / (entries_per_run * len(runs))

    tail = high_percentile(walls)
    print(f"{name}: wall_s median {wall:.4f} s over {len(walls)} runs; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"))
    print(f"{name}: setup_s median {setup:.4f} s over {len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"{name}: process.cpu_s median {statistics.median(r['cpu_s'] for r in runs):.3f} s (diagnostic)")
    if first:
        print(f"{name}: nonfinite_values {first['nonfinite_values']} in report.json; "
              f"failed flux entries {first['failed_entries']}/{first['entries']} per run; "
              f"dev.svn {first['dev.svn']!r} (diagnostic)")
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)

    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(setup, "s"),
        "snapshots_per_s": metric(snapshots / (wall - setup), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in runs), "MB"),
        "failed_share": metric(failed_share, "ratio"),
    }
    for key in GATED_DEVS:
        metrics[key] = metric(first[key] if first else float("nan"), "abs")
    return {
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(not r["ok"] for r in runs),
        "metrics": metrics,
    }


def layer_metrics(traced: dict, untraced: dict, cpu_s: float, snapshots: int, summary: dict) -> dict:
    """Per-layer metrics from the traced run's spans, counters and probes."""
    spans = traced["spans"]
    names = spans["names"]
    rows = spans["rows"]
    child_time = [0.0] * len(rows)
    for _, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in traced["layers"]}
    for i, (ni, start, end, _) in enumerate(rows):
        s = stats[names[ni]]
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += (end - start) - child_time[i]

    counters, maxima = traced["counters"], traced["maxima"]
    out = {}
    for layer, s in stats.items():
        out[f"{layer}.calls"] = metric(s["calls"], "count")
        out[f"{layer}.busy_s"] = metric(s["busy_s"], "s")
        out[f"{layer}.self_s"] = metric(s["self_s"], "s")
        out[f"{layer}.rejections"] = metric(traced["rejections"].get(layer, 0), "count")

    steps = counters.get("states.evolve_wavefunction.steps", 0)
    evolve, transform = stats["states.evolve_wavefunction"], stats["states.wigner_transform"]
    fits = counters.get("fluxes.spline.fits", 0)
    out["states.evolve_wavefunction.steps"] = metric(steps, "count")
    out["states.evolve_wavefunction.us_per_step"] = metric(1e6 * evolve["busy_s"] / steps if steps else 0.0, "us")
    out["states.evolve_wavefunction.norm_drift_max"] = metric(maxima.get("states.evolve_wavefunction.norm_drift_max", 0.0), "abs")
    out["states.wigner_transform.ms_per_call"] = metric(
        1e3 * transform["busy_s"] / transform["calls"] if transform["calls"] else 0.0, "ms")
    out["states.wigner_transform.ops_computed"] = metric(counters.get("states.wigner_transform.ops_computed", 0), "flop")
    out["states.wigner_transform.bytes_computed"] = metric(counters.get("states.wigner_transform.bytes_computed", 0), "B")
    for probe in ("norm_defect_max", "closed_form_err"):
        out[f"states.wigner_transform.{probe}"] = metric(maxima.get(f"states.wigner_transform.{probe}", 0.0), "abs")
    out["fluxes.spline.fits"] = metric(fits, "count")
    out["numpy.fft.calls"] = metric(counters.get("numpy.fft.calls", 0), "count")
    out["transforms_per_snapshot"] = metric(transform["calls"] / snapshots, "ratio")
    out["spline_fits_per_snapshot"] = metric(fits / snapshots, "ratio")
    out["current_calls_per_snapshot"] = metric(stats["currents.wigner_current"]["calls"] / snapshots, "ratio")
    out["steps_per_snapshot"] = metric(steps / snapshots, "ratio")
    out["trace.overhead_s"] = metric(traced["run_s"] - untraced["run_s"], "s")
    out["trace.attributed_share"] = metric(sum(s["self_s"] for s in stats.values()) / traced["run_s"], "ratio")
    out["process.cpu_s"] = metric(cpu_s, "s")
    out["report.nonfinite_values"] = metric(summary["nonfinite_values"], "count")
    out["dev.svn"] = metric(summary["dev.svn"], "abs")
    return out


def run_traced(name: str, config: dict, cfg_path: Path, work: Path) -> dict:
    """One untraced and one traced in-process run; per-layer metrics from the traced one."""
    results, summaries, problems, cpu = {}, {}, [], 0.0
    for mode in ("untraced", "traced"):
        out, res = work / mode, work / f"{mode}.json"
        args = [str(BENCH / "inproc.py"), "--config", str(cfg_path), "--out", str(out), "--result", str(res)]
        code, wall, usage, _ = spawn(args + (["--trace"] if mode == "traced" else []), work / f"{mode}.log")
        print(f"{name} {mode} in-process run: exit {code}, wall {wall:.3f} s")
        if code != 0:
            problems.append(f"{mode} run exited {code}: {(work / f'{mode}.log').read_text()[-2000:]}")
            continue
        if mode == "untraced":
            cpu = usage.ru_utime + usage.ru_stime
        found, summary = check_outputs(out, config)
        problems += [f"{mode}: {p}" for p in found]
        if not found:
            results[mode] = json.loads(res.read_text(encoding="utf-8"))
            summaries[mode] = summary
    if len(summaries) == 2 and summaries["traced"] != summaries["untraced"]:
        problems.append("tracing changed the report numbers")
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    if len(results) < 2:
        return {"correct": False, "attempted": 2, "failed": 2 - len(results), "metrics": {}}
    traced = results["traced"]
    metrics = layer_metrics(traced, results["untraced"], cpu, snapshot_count(config),
                            summaries["traced"])
    shares = sorted(((m[:-len(".self_s")], v["value"] / traced["run_s"]) for m, v in metrics.items()
                     if m.endswith(".self_s")), key=lambda kv: -kv[1])
    print(f"{name}: self-time shares of the traced run ({traced['run_s']:.3f} s): "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares if v >= 0.005))
    return {"correct": not problems, "attempted": 2, "failed": 0, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    config = make_config(name, seed)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    print(f"{name} seed {seed}: state {config['state']}; snapshots {snapshot_count(config)}")
    if trace:
        return run_traced(name, config, cfg_path, work)
    return run_end_to_end(name, config, cfg_path, seconds, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wignerflow benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["workloads"], "all"],
                        help="one workload, or all of them in turn (last line then maps name to result)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wignerflow" / "cli.py").is_file():
        print(f"perfbench: no wignerflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS["workloads"]) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
