"""Compare the outputs of two source trees on the benchmark workloads.

    python tools/report_diff.py PARENT_TREE CHANGE_TREE

Runs the series, period and cat_nodal workloads at seeds 0 and 1 on each
tree: one child interpreter per tree and config, with PYTHONPATH set to
the tree's src/ and one OpenBLAS thread, calling cli.parse_config and
cli.run in-process.  The configs come from make_config in this
repository's perfbench/run.py.  For each run it prints whether
report.json, fluxes.csv and orbit.csv are byte-identical, then every
report.json value that moved by more than 1e-12 relative, by JSON path
(a changed string, null or key counts as moved).  Exits 0 when every
file is identical, 1 when any differs and 2 when a run fails.  Standard
library only.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "period", "cat_nodal")
SEEDS = (0, 1)
FILES = ("report.json", "fluxes.csv", "orbit.csv")
#: Relative change above which a report.json number counts as moved.
REL_TOL = 1e-12

CHILD = (
    "import json, sys\n"
    "from wignerflow import cli\n"
    "cli.run(cli.parse_config(json.loads(sys.argv[1])), sys.argv[2])\n"
)


def make_config():
    """perfbench/run.py's make_config, loaded without writing a bytecode cache beside it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config


def run_tree(tree: Path, config: dict, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(config), str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(f"run on {tree} exited {result.returncode}:\n{result.stderr[-2000:]}")


def moved(a, b, path: str = ""):
    """(path, a, b) of every leaf of two parsed reports that differs beyond REL_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from moved(a.get(key), b.get(key), f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from moved(x, y, f"{path}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            yield path, a, b
    elif a != b:
        yield path, a, b


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    configs = make_config()
    identical = True
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                outs = [Path(tmp) / f"{side}-{name}-{seed}" for side in ("parent", "change")]
                try:
                    for tree, out in zip(trees, outs):
                        run_tree(tree, configs(name, seed), out)
                except RuntimeError as exc:
                    print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                    return 2
                same = {f: (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in FILES}
                identical &= all(same.values())
                verdicts = ", ".join(f"{f} {'identical' if s else 'differs'}" for f, s in same.items())
                print(f"{name} seed {seed}: {verdicts}")
                reports = [json.loads((out / "report.json").read_text(encoding="utf-8")) for out in outs]
                for path, a, b in moved(*reports):
                    print(f"  {path}: {a!r} -> {b!r}")
    print("identical" if identical else "differs")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
