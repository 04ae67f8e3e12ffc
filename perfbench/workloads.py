"""The four benchmark workloads: the CLI calls of one pass and its headline numbers.

Each workload loads a different spinnet layer, so an optimisation of one
layer has a workload that exercises it and one that bypasses it; the
predictions are in ``predictions.json``.  Sizes are those a user runs at
a desk; ``smoke`` shrinks them so the benchmark's own tests finish in
seconds.

The benchmark seed picks one of ``INPUT_SEEDS`` spinnet seeds, for which
``reference.json`` holds the headline numbers of the commit that defined
the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUT_SEEDS = 16
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def input_seed(bench_seed: int) -> int:
    return bench_seed % INPUT_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: Callable[[int, Path, bool], list]  # (seed, out_dir, smoke) -> CLI argv lists
    headline: Callable[[Path], dict]  # out_dir -> {name: float}


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _trace_numbers(path: Path, prefix: str) -> dict:
    """Mean signal and mean SEM of a written echo trace.

    A stretched-exponential fit that stalls at its starting guess reports
    numbers fixed by the time grid alone; these depend on every computed
    point, so the check still sees the physics.
    """
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    return {
        f"{prefix}signal_mean": math.fsum(float(r[1]) for r in rows) / len(rows),
        f"{prefix}sem_mean": math.fsum(float(r[2]) for r in rows) / len(rows),
    }


def _run_argv(config: dict, out: Path) -> list:
    path = out / "config.json"
    path.write_text(json.dumps(config))
    return ["run", str(path), "--quiet", "--out", str(out / config["experiment"])]


def _diffusion_argvs(seed, out, smoke):
    return [_run_argv({
        "experiment": "diffusion",
        "seed": seed,
        "realizations": 2 if smoke else 20,
        "params": {"omega_mhz": 6.40, "n_list": [50, 100] if smoke else [100, 200, 400, 800]},
        "network": {"densities_ppm": {"P1": 1.575}, "disorder_mhz": 1.36},
    }, out)]


def _diffusion_headline(out):
    summary = _read(out / "diffusion" / "diffusion_summary.json")
    numbers = {"D_inf": summary["D_inf"]}
    numbers.update({f"D_L[{i}]": d for i, d in enumerate(summary["D_L"])})
    return numbers


_PROTOCOL_TAGS = ("fig-s4a", "fig-s4b", "fig-2c")


def _protocol_argvs(seed, out, smoke):
    extra = ["--realizations", "2"] if smoke else []
    return [["reproduce", tag, "--seed", str(seed), "--quiet", "--out", str(out / tag)] + extra
            for tag in _PROTOCOL_TAGS]


def _protocol_headline(out):
    s4b = _read(out / "fig-s4b" / "fig_s4b_summary.json")
    return {
        "N_sat": _read(out / "fig-s4a" / "fig_s4a_summary.json")["N_sat"],
        "P_inf": s4b["A_inf"],
        "W": s4b["W_MHz"],
        "tau_eq": _read(out / "fig-2c" / "fig_2c_summary.json")["tau_eq_us"],
    }


def _deer_paper_argvs(seed, out, smoke):
    return [["reproduce", "fig-s2", "--realizations", "20" if smoke else "600",
             "--seed", str(seed), "--quiet", "--out", str(out / "fig-s2")]]


def _deer_paper_headline(out):
    numbers = {"ratio": _read(out / "fig-s2" / "fig_s2_summary.json")["ratio"]}
    for density in ("2.4", "6.3"):
        numbers.update(_trace_numbers(out / "fig-s2" / f"deer_trace_{density}ppm.csv", f"{density}ppm."))
    return numbers


def _deer_cluster_argvs(seed, out, smoke):
    return [_run_argv({
        "experiment": "deer",
        "seed": seed,
        "realizations": 8 if smoke else 40,
        "params": {"n_bath": 3 if smoke else 7},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "diamond_lattice"},
    }, out)]


def _deer_cluster_headline(out):
    fit = _read(out / "deer" / "deer_fit.json")
    return {"rate_mhz": fit["rate_mhz"], "beta": fit["beta"],
            **_trace_numbers(out / "deer" / "deer_trace.csv", "")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diffusion", _diffusion_argvs, _diffusion_headline),
        Workload("protocol", _protocol_argvs, _protocol_headline),
        Workload("deer_paper", _deer_paper_argvs, _deer_paper_headline),
        Workload("deer_cluster", _deer_cluster_argvs, _deer_cluster_headline),
    )
}


def load_reference() -> dict:
    return _read(REFERENCE)
