"""Diff the seeded artifacts of `spinnet reproduce` and `spinnet run` between two source trees.

    python tools/artifact_diff.py PARENT_SRC CHANGE_SRC

Each argument is a checkout root or its ``src`` directory.  For each tree
the six presets and the small ``run`` configs of ``RUN_CONFIGS`` (every
experiment that writes a CSV, and a one-realization protocol run whose
CSV has no SEM columns) run at seeds 0-3 in one fresh interpreter with
every BLAS and OpenMP pool pinned to 1 thread (the transport and
protocol outputs depend on the thread count).  The script prints, per
artifact, both SHA-256 digests and the largest absolute and relative
change of any numeric cell, then the largest change per artifact name
over all seeds.  ``manifest.json`` holds the creation time and is not
compared.

Exit status: 0 when every artifact is byte-identical, 1 when some differ,
2 when a tree cannot be found or a run fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TAGS = ("closed-form-chain", "fig-s2", "fig-s3", "fig-s4a", "fig-s4b", "fig-2c")
SEEDS = (0, 1, 2, 3)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `spinnet run` configs small enough to run at every seed in seconds; the
# presets never write these experiments' CSVs
RUN_CONFIGS = {
    "deer": {
        "experiment": "deer",
        "realizations": 20,
        "params": {"n_bath": 4},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "diamond_lattice"},
    },
    "hahn": {"experiment": "hahn", "realizations": 10, "params": {"n_bath": 4}},
    "rabi": {"experiment": "rabi", "params": {"omega_mhz": 5.0, "n_points": 64}},
    "diffusion": {
        "experiment": "diffusion",
        "realizations": 2,
        "params": {"n_list": [50, 100]},
        "network": {"densities_ppm": {"P1": 1.575}, "disorder_mhz": 1.36},
    },
    "protocol": {"experiment": "protocol", "realizations": 3, "params": {"n_p1": 40, "n_cycles": 8}},
    "protocol-1": {"experiment": "protocol", "realizations": 1, "params": {"n_p1": 40, "n_cycles": 8}},
    "crossover": {
        "experiment": "crossover",
        "realizations": 2,
        "params": {"n_p1": 40, "n_cycles": 8, "omegas_mhz": [1.0, 6.4, 20.0]},
        "network": {"disorder_mhz": 1.36},
    },
}

_RUN_ALL = """
import json
import sys
from spinnet.cli import main
out, tags, seeds, runs = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(","), json.loads(sys.argv[4])
jobs = [(tag, ["reproduce", tag]) for tag in filter(None, tags)]
jobs += [("run-" + name, ["run", path]) for name, path in runs.items()]
for name, argv in jobs:
    for seed in seeds:
        code = main(argv + ["--seed", seed, "--quiet", "--out", f"{out}/{name}/seed{seed}"])
        if code != 0:
            sys.exit(f"{name} --seed {seed} exited {code}")
"""


def package_root(path: str) -> Path:
    """The directory that holds the ``spinnet`` package of a tree."""
    root = Path(path).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "spinnet" / "__init__.py").is_file():
            return candidate
    raise FileNotFoundError(f"no spinnet package under {root} or {root / 'src'}")


def run_artifacts(src: Path, out: Path, tags=TAGS, seeds=SEEDS, runs=RUN_CONFIGS) -> None:
    """Write every preset of ``tags`` and every config of ``runs`` at each seed under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryDirectory(prefix="artifact_configs_") as config_dir:
        paths = {name: os.path.join(config_dir, f"{name}.json") for name in runs}
        for name, config in runs.items():
            Path(paths[name]).write_text(json.dumps(config))
        argv = [_RUN_ALL, str(out), ",".join(tags), ",".join(map(str, seeds)), json.dumps(paths)]
        subprocess.run([sys.executable, "-c", *argv], env=env, check=True)


def _floats(cells) -> list:
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except (TypeError, ValueError):
            pass
    return out


def _json_leaves(node) -> list:
    if isinstance(node, dict):
        return [x for v in node.values() for x in _json_leaves(v)]
    if isinstance(node, list):
        return [x for v in node for x in _json_leaves(v)]
    return [node]


def numeric_cells(path: Path) -> list:
    """Every numeric cell of a CSV or JSON artifact, in file order."""
    text = path.read_text()
    if path.suffix == ".json":
        leaves = _json_leaves(json.loads(text))
        return [float(x) for x in leaves if isinstance(x, (int, float)) and not isinstance(x, bool)]
    if path.suffix == ".csv":
        return _floats(cell for row in csv.reader(io.StringIO(text)) for cell in row)
    return []


def largest_change(a: list, b: list):
    """(largest |a - b|, largest |a - b| / max(|a|, |b|)); None when the cell counts differ."""
    if len(a) != len(b):
        return None
    abs_d = rel_d = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        abs_d = max(abs_d, d)
        rel_d = max(rel_d, d / max(abs(x), abs(y)))
    return abs_d, rel_d


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "-" * 64


def compare_trees(parent: Path, change: Path) -> tuple:
    """Print the digests and largest change of every artifact; return (rows, any_differs)."""
    names = sorted(
        {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
        | {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    )
    rows, differs = [], False
    for rel in names:
        if rel.name == "manifest.json":
            continue
        a, b = parent / rel, change / rel
        da, db = digest(a), digest(b)
        if da == db:
            change_txt, delta = "identical", (0.0, 0.0)
        elif not (a.is_file() and b.is_file()):
            change_txt, delta = "missing on one side", None
        else:
            delta = largest_change(numeric_cells(a), numeric_cells(b))
            change_txt = "cell count differs" if delta is None else f"max_abs {delta[0]:.3e}  max_rel {delta[1]:.3e}"
        differs |= da != db
        rows.append((rel, delta))
        print(f"{rel}\n  parent {da}\n  change {db}\n  {change_txt}")
    return rows, differs


def summarize(rows) -> None:
    """Largest change per artifact name over all seeds."""
    worst = {}
    for rel, delta in rows:
        key = (rel.parts[0], rel.name)
        prev = worst.get(key, (0.0, 0.0))
        worst[key] = None if delta is None or prev is None else (max(prev[0], delta[0]), max(prev[1], delta[1]))
    print(f"\nlargest change over seeds {','.join(map(str, SEEDS))}:")
    for (tag, name), delta in sorted(worst.items()):
        txt = "structure differs" if delta is None else f"max_abs {delta[0]:.3e}  max_rel {delta[1]:.3e}"
        print(f"  {tag + '/' + name:<42} {txt}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src", help="parent checkout root or its src directory")
    p.add_argument("change_src", help="changed checkout root or its src directory")
    args = p.parse_args(argv)
    try:
        trees = [package_root(args.parent_src), package_root(args.change_src)]
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for src, out in zip(trees, outs):
            try:
                run_artifacts(src, out)
            except subprocess.CalledProcessError as err:
                print(f"error: a run failed for {src}: exit {err.returncode}", file=sys.stderr)
                return 2
        rows, differs = compare_trees(*outs)
    summarize(rows)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
