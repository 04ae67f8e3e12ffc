"""Diff the seeded artifacts of `spinnet reproduce` and `spinnet run` between two source trees.

    python tools/artifact_diff.py PARENT_SRC CHANGE_SRC

Each argument is a checkout root or its ``src`` directory.  For each tree
the six presets and the small ``run`` configs of ``RUN_CONFIGS`` (every
experiment, a one-realization protocol run whose CSV has no SEM columns,
a protocol run with every cycle parameter set, DEER on 8-site lattice
clusters, on continuum clusters and, as ``deer-dense``, on continuum
clusters at 500 ppm, whose exclusion radius refuses sites and so
rewinds the block placement, a one-realization diffusion run
over box sizes out of order and one at the 400- and 800-spin boxes of
the diffusion benchmark) run at seeds 0-3, except the ``rabi`` and
``fit`` configs, which draw nothing, take no seed and run once, all in
one fresh interpreter with every BLAS and OpenMP pool pinned to 1 thread
(the transport and protocol outputs depend on the thread count).  The
interpreter starts in the directory that holds the configs and
``FIT_CSV``, the table the ``fit`` config reads.  The script prints, per
artifact, both SHA-256 digests and the largest absolute and relative
change of any numeric cell, then the largest change per artifact name
over all seeds.  JSON artifacts are compared key by key: the change is
taken over the numeric keys present on both sides, and keys that were
added, removed or changed a non-numeric value are named; an empty object
or array counts as a key of its own.  A
``manifest.json`` is compared the same way, key by key, after
:func:`artifact_bytes` removes the fields that differ between two runs of
one tree: ``wall_time_s`` and ``created_unix``, which are clock readings,
and the ``config.out_dir`` of a ``run``, the output path, which names the
tree's own directory.  No other field is removed, so a changed run record
(a ``lanczos`` entry, a resolved ``config`` or ``readout_config``, the
``environment``) is a difference.

An artifact only the change tree writes is noted as an added file.

Exit status: 0 when every artifact, and every manifest outside its
run-to-run fields, is byte-identical; 3 when the only differences are
additions (JSON artifacts or manifests that gain keys, artifacts only
the change tree writes), every CSV and every value present on both sides
staying identical; 1 when anything else differs (a CSV, a shared value,
a removed key, an artifact only the parent tree writes); 2 when a tree
cannot be found or a run fails.
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
# experiments that draw nothing and refuse --seed: their configs run once
SEEDLESS = ("rabi", "fit")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# exit statuses; a lower one outranks a higher one among 1 and 3
IDENTICAL, DIFFERS, FAILED, ADDED_KEYS = 0, 1, 2, 3
# the manifest fields that differ between two runs of one tree
RUN_TO_RUN = ("wall_time_s", "created_unix")

# x, y, sem of a saturating buildup: the table the `fit` config reads
FIT_DATA = "fit_data.csv"
FIT_CSV = (
    "cycle,p_p1,p_p1_sem\n"
    "1,0.03728,0.003\n2,0.06415,0.003\n3,0.08775,0.003\n4,0.10436,0.003\n"
    "5,0.11697,0.003\n6,0.12138,0.003\n8,0.12792,0.003\n10,0.13991,0.003\n"
)

# `spinnet run` configs small enough to run at every seed in seconds.  The
# presets run `deer`, `diffusion`, `protocol` and `crossover` at their own
# configs only; these add `hahn`, `rabi`, `concentration` and `fit`, which
# no preset runs, and the params no preset sets
RUN_CONFIGS = {
    "deer": {
        "experiment": "deer",
        "realizations": 20,
        "params": {"n_bath": 4},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "diamond_lattice"},
    },
    # the 28-pair cluster of the deer_cluster benchmark workload, a size no preset runs
    "deer-7": {
        "experiment": "deer",
        "realizations": 8,
        "params": {"n_bath": 7},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "diamond_lattice"},
    },
    # clusters placed by the continuum block sampler
    "deer-continuum": {
        "experiment": "deer",
        "realizations": 20,
        "params": {"n_bath": 5},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "continuum"},
    },
    # continuum clusters dense enough that the exclusion radius refuses
    # sites: over seeds 0-3 about half the draws rewind the block placement
    "deer-dense": {
        "experiment": "deer",
        "realizations": 20,
        "params": {"n_bath": 5},
        "network": {"densities_ppm": {"P1": 500.0}, "placement": "continuum"},
    },
    "hahn": {"experiment": "hahn", "realizations": 10, "params": {"n_bath": 4}},
    "rabi": {"experiment": "rabi", "params": {"omega_mhz": 5.0, "n_points": 64}},
    "diffusion": {
        "experiment": "diffusion",
        "realizations": 2,
        "params": {"n_list": [50, 100]},
        "network": {"densities_ppm": {"P1": 1.575}, "disorder_mhz": 1.36},
    },
    # box sizes out of order, and one realization each, so that the probes
    # are the whole run
    "diffusion-unsorted": {
        "experiment": "diffusion",
        "realizations": 1,
        "params": {"n_list": [100, 50, 75]},
        "network": {"densities_ppm": {"P1": 1.575}, "disorder_mhz": 1.36},
    },
    # the largest boxes of the diffusion benchmark workload, beyond fig-s3's
    # 200, one realization each
    "diffusion-large": {
        "experiment": "diffusion",
        "realizations": 1,
        "params": {"n_list": [400, 800]},
        "network": {"densities_ppm": {"P1": 1.575}, "disorder_mhz": 1.36},
    },
    "protocol": {"experiment": "protocol", "realizations": 3, "params": {"n_p1": 40, "n_cycles": 8}},
    "protocol-1": {"experiment": "protocol", "realizations": 1, "params": {"n_p1": 40, "n_cycles": 8}},
    # every CycleConfig field the protocol params can set, each off its default
    "protocol-cycle": {
        "experiment": "protocol",
        "realizations": 2,
        "params": {
            "omega_mhz": 3.2,
            "n_p1": 40,
            "t_hh_us": 4.0,
            "t_laser_us": 3.0,
            "n_cycles": 10,
            "p_nv0": 0.6,
            "t1rho_dark_us": 300.0,
            "t1rho_laser_us": 20.0,
            "t1rho_nv_us": None,
            "probe_k": 5,
        },
    },
    "crossover": {
        "experiment": "crossover",
        "realizations": 2,
        "params": {"n_p1": 40, "n_cycles": 8, "omegas_mhz": [1.0, 6.4, 20.0]},
        "network": {"disorder_mhz": 1.36},
    },
    # DEER calibration fits, the through-origin rate fit and the Monte Carlo
    # ratio of estimate_concentration
    "concentration": {
        "experiment": "concentration",
        "realizations": 10,
        "params": {
            "gamma_exp_mhz": 0.6,
            "gamma_sigma_mhz": 0.05,
            "calibration_densities_ppm": [2.4, 6.3],
            "n_mc": 2000,
        },
    },
    # a weighted fit from a given start vector
    "fit": {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": FIT_DATA, "p0": [0.1, 2.0]}},
}

_RUN_ALL = """
import json
import sys
from spinnet.cli import main
out, tags, seeds, runs = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(","), json.loads(sys.argv[4])
jobs = [(tag, ["reproduce", tag], True) for tag in filter(None, tags)]
jobs += [("run-" + name, ["run", path], seeded) for name, (path, seeded) in runs.items()]
for name, argv, seeded in jobs:
    for seed in seeds if seeded else [None]:
        flags, where = (["--seed", seed], f"{name}/seed{seed}") if seeded else ([], name)
        code = main(argv + flags + ["--quiet", "--out", f"{out}/{where}"])
        if code != 0:
            sys.exit(f"{where} exited {code}")
"""


def package_root(path: str) -> Path:
    """The directory that holds the ``spinnet`` package of a tree."""
    root = Path(path).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "spinnet" / "__init__.py").is_file():
            return candidate
    raise FileNotFoundError(f"no spinnet package under {root} or {root / 'src'}")


def run_artifacts(src: Path, out: Path, tags=TAGS, seeds=SEEDS, runs=RUN_CONFIGS) -> None:
    """Write every preset of ``tags`` and every config of ``runs`` under ``out``, at each
    seed unless its experiment is :data:`SEEDLESS`."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryDirectory(prefix="artifact_configs_") as config_dir:
        paths = {name: os.path.join(config_dir, f"{name}.json") for name in runs}
        for name, config in runs.items():
            Path(paths[name]).write_text(json.dumps(config))
        Path(config_dir, FIT_DATA).write_text(FIT_CSV)
        jobs = {name: (paths[name], config["experiment"] not in SEEDLESS) for name, config in runs.items()}
        argv = [_RUN_ALL, str(Path(out).resolve()), ",".join(tags), ",".join(map(str, seeds)), json.dumps(jobs)]
        subprocess.run([sys.executable, "-c", *argv], env=env, check=True, cwd=config_dir)


def _floats(cells) -> list:
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except (TypeError, ValueError):
            pass
    return out


def _json_leaves(node, path: str = "") -> dict:
    """Every scalar of a JSON document, and every empty object or array
    below its root, keyed by its path, e.g. ``rates_mhz/2.4``, ``D/0`` or
    ``readout_config``."""
    if not isinstance(node, (dict, list)) or (path and not node):
        return {path: node}
    items = node.items() if isinstance(node, dict) else enumerate(node)
    leaves = {}
    for key, child in items:
        leaves.update(_json_leaves(child, f"{path}/{key}" if path else str(key)))
    return leaves


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def csv_cells(path: Path) -> list:
    """Every numeric cell of a CSV artifact, in file order."""
    return _floats(cell for row in csv.reader(io.StringIO(path.read_text())) for cell in row)


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


def keyed_change(a: dict, b: dict) -> tuple:
    """Compare two JSON documents leaf by leaf.

    Returns the :func:`largest_change` over the numeric leaves present on
    both sides, and a sorted note for every other leaf that differs:
    ``added K`` (only in ``b``), ``removed K`` (only in ``a``) and
    ``changed K`` (a shared leaf that is not a number on both sides, such
    as a flag, with a different value).
    """
    la, lb = _json_leaves(a), _json_leaves(b)
    shared = [k for k in la if k in lb and _is_number(la[k]) and _is_number(lb[k])]
    delta = largest_change([float(la[k]) for k in shared], [float(lb[k]) for k in shared])
    notes = [f"added {k}" for k in lb.keys() - la.keys()] + [f"removed {k}" for k in la.keys() - lb.keys()]
    notes += [f"changed {k}" for k in la.keys() & lb.keys() if k not in shared and la[k] != lb[k]]
    return delta, tuple(sorted(notes))


def change_text(delta, notes=()) -> str:
    text = "cell count differs" if delta is None else f"max_abs {delta[0]:.3e}  max_rel {delta[1]:.3e}"
    return "  ".join([text, ", ".join(notes)]) if notes else text


def artifact_bytes(path: Path) -> bytes:
    """The bytes compared of an artifact: the file's own, except that a
    ``manifest.json`` is written again, in its key order, without the
    :data:`RUN_TO_RUN` fields and without ``config.out_dir``."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    for key in RUN_TO_RUN:
        manifest.pop(key, None)
    if isinstance(manifest.get("config"), dict):
        manifest["config"].pop("out_dir", None)
    return json.dumps(manifest, indent=2).encode()


def digest(path: Path) -> str:
    return hashlib.sha256(artifact_bytes(path)).hexdigest() if path.is_file() else "-" * 64


def file_change(a: Path, b: Path) -> tuple:
    """(largest numeric change, notes on differing JSON keys) of one artifact.

    A JSON artifact is compared key by key (:func:`keyed_change`), so one
    that gains or loses a field still reports the change of the others; a
    CSV is compared cell by cell.
    """
    if a.suffix == ".json":
        return keyed_change(json.loads(artifact_bytes(a)), json.loads(artifact_bytes(b)))
    if a.suffix == ".csv":
        return largest_change(csv_cells(a), csv_cells(b)), ()
    return (0.0, 0.0), ()


def compare_trees(parent: Path, change: Path) -> tuple:
    """Print the digests and largest change of every artifact and manifest
    (of :func:`artifact_bytes`); return (rows, verdict).

    Each row is (relative path, largest change or None, notes on differing
    JSON keys, or ``added file``).  The verdict is :data:`IDENTICAL`,
    :data:`ADDED_KEYS` when every differing artifact is a JSON file that
    only gains keys, with no shared value changed, or a file only the
    change tree holds, or :data:`DIFFERS`.
    """
    names = sorted(
        {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
        | {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    )
    rows, verdicts = [], set()
    for rel in names:
        a, b = parent / rel, change / rel
        da, db = digest(a), digest(b)
        notes = ()
        if da == db:
            change_txt, delta = "identical", (0.0, 0.0)
        elif not a.is_file():
            change_txt, delta, notes = "added file", (0.0, 0.0), ("added file",)
        elif not b.is_file():
            change_txt, delta = "removed file", None
        else:
            delta, notes = file_change(a, b)
            change_txt = change_text(delta, notes)
        if da != db:
            added_only = delta == (0.0, 0.0) and notes and all(n.startswith("added ") for n in notes)
            verdicts.add(ADDED_KEYS if added_only else DIFFERS)
        rows.append((rel, delta, notes))
        print(f"{rel}\n  parent {da}\n  change {db}\n  {change_txt}")
    return rows, min(verdicts, default=IDENTICAL)


def summarize(rows) -> None:
    """Largest change and every differing JSON key per artifact name over all seeds."""
    worst, all_notes = {}, {}
    for rel, delta, notes in rows:
        key = (rel.parts[0], rel.name)
        prev = worst.get(key, (0.0, 0.0))
        worst[key] = None if delta is None or prev is None else (max(prev[0], delta[0]), max(prev[1], delta[1]))
        all_notes[key] = all_notes.get(key, set()) | set(notes)
    print(f"\nlargest change over seeds {','.join(map(str, SEEDS))}:")
    for (tag, name), delta in sorted(worst.items()):
        txt = "structure differs" if delta is None else change_text(delta, sorted(all_notes[tag, name]))
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
        return FAILED
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for src, out in zip(trees, outs):
            try:
                run_artifacts(src, out)
            except subprocess.CalledProcessError as err:
                print(f"error: a run failed for {src}: exit {err.returncode}", file=sys.stderr)
                return FAILED
        rows, verdict = compare_trees(*outs)
    summarize(rows)
    if verdict == ADDED_KEYS:
        print("\nonly added JSON keys and added files differ; every CSV and every shared value is identical")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
