"""Per-layer spans recorded from outside spinnet, around the calls into each module.

For one traced pass, each public function in ``WRAP_POINTS`` is replaced
at the module attribute through which the pipelines look it up, and
``numpy.linalg.eigh`` is replaced and attributed to the module of the span
that encloses the call.  A wrap point whose name no longer exists raises
:class:`MissingWrapPoint` instead of reporting zero.

Spans (name, start, end, parent) are kept in memory; a span's self time is
its duration minus that of its direct children, which nest strictly
because the program is single-threaded.  Counts are taken from the
arguments and results at the same boundaries.  Two counts are computed
rather than measured, and say so in their names: eigh flops as c*n^3 and
operator-set bytes as 7*n*4^n*16.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span).  A function reached through several modules is
# wrapped at each of them under one span name.
WRAP_POINTS = (
    ("transport", "generate_network", "network.generate_network"),
    ("clusterdyn", "generate_network", "network.generate_network"),
    ("protocol", "generate_network", "network.generate_network"),
    ("network", "assign_detunings", "network.assign_detunings"),
    ("transport", "assign_detunings", "network.assign_detunings"),
    ("transport", "transport_network", "transport.transport_network"),
    ("transport", "build_rates", "transport.build_rates"),
    ("protocol", "build_rates", "transport.build_rates"),
    ("transport", "integrate_master_equation", "transport.integrate_master_equation"),
    ("transport", "msd", "transport.msd"),
    ("transport", "average_msd", "transport.average_msd"),
    ("protocol", "protocol_network", "protocol.protocol_network"),
    ("protocol", "run_iterative_protocol", "protocol.run_iterative_protocol"),
    ("protocol", "readout_equilibration", "protocol.readout_equilibration"),
    ("clusterdyn", "build_cluster_hamiltonian", "spinops.build_cluster_hamiltonian"),
    ("spinops", "operator_set", "spinops.operator_set"),
    ("clusterdyn", "run_deer", "clusterdyn.run_deer"),
    ("clusterdyn", "rotation_unitary", "clusterdyn.rotation_unitary"),
    ("clusterdyn", "sample_nv_p1_cluster", "clusterdyn.sample_nv_p1_cluster"),
    ("fitkit", "fit", "fitkit.fit"),
    ("fitkit", "linear_fit", "fitkit.linear_fit"),
    ("fitkit", "reduce_mean_sem", "fitkit.reduce_mean_sem"),
    ("clusterdyn", "reduce_mean_sem", "fitkit.reduce_mean_sem"),
)
MODULES = sorted({m for m, _, _ in WRAP_POINTS})
EIGH_SPANS = ("transport.eigh", "protocol.eigh", "clusterdyn.eigh")
SPANS = tuple(dict.fromkeys(["cli.main"] + [s for _, _, s in WRAP_POINTS] + list(EIGH_SPANS)))
# Builders that call generate_network once per attempt; extra calls are redraws.
NETWORK_BUILDERS = ("transport.transport_network", "clusterdyn.sample_nv_p1_cluster", "protocol.protocol_network")

# Dense symmetric eigendecomposition with eigenvectors: about 9 n^3 real
# flops (Golub & Van Loan, Matrix Computations, sec. 8.3); a complex
# Hermitian matrix counts 4x that in real flops.
EIGH_FLOPS_PER_N3 = 9.0
COMPLEX_FLOP_FACTOR = 4.0


class MissingWrapPoint(RuntimeError):
    pass


def load_modules() -> dict:
    return {name: importlib.import_module(f"spinnet.{name}") for name in MODULES}


def check_wrap_points(modules: dict) -> None:
    missing = [f"spinnet.{m}.{a}" for m, a, _ in WRAP_POINTS if not callable(getattr(modules[m], a, None))]
    if missing:
        raise MissingWrapPoint(
            "traced run cannot attribute time to " + ", ".join(missing)
            + ": the name no longer exists; update perfbench/tracing.py WRAP_POINTS"
        )


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.operator_sizes = set()

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def enclosing_module(self) -> str:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "perfbench"

    def wrap(self, span: str, fn, observe=None):
        def traced(*args, **kwargs):
            index = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, fn, result, args, kwargs)
            return result

        return traced

    def summary(self) -> tuple:
        """(calls, self seconds) per span name."""
        calls = Counter()
        self_s = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_network(tracer, fn, result, args, kwargs):
    tracer.counts["network.generate_network.sites"] += len(result.sites)


def _observe_rates(tracer, fn, result, args, kwargs):
    n = result.rates.shape[0]
    tracer.counts["transport.build_rates.pairs"] += n * (n - 1) // 2
    tracer.counts["transport.build_rates.pairs_kept"] += int(np.count_nonzero(result.rates)) // 2


def _observe_integrate(tracer, fn, result, args, kwargs):
    if tracer.inside("transport.average_msd"):
        tracer.counts["transport.average_msd.integrations"] += 1


def _observe_average_msd(tracer, fn, result, args, kwargs):
    tracer.counts["transport.average_msd.realizations"] += _bound(fn, args, kwargs)["n_realizations"]


def _observe_hamiltonian(tracer, fn, result, args, kwargs):
    tracer.counts["spinops.build_cluster_hamiltonian.dim_sum"] += result.matrix.shape[0]


def _observe_operator_set(tracer, fn, result, args, kwargs):
    tracer.operator_sizes.add(_bound(fn, args, kwargs)["n_sites"])


def _observe_fit(tracer, fn, result, args, kwargs):
    tracer.counts["fitkit.fit.nfev"] += result.iterations
    tracer.counts["fitkit.fit.unconverged"] += not result.converged


OBSERVERS = {
    "network.generate_network": _observe_network,
    "transport.build_rates": _observe_rates,
    "transport.integrate_master_equation": _observe_integrate,
    "transport.average_msd": _observe_average_msd,
    "spinops.build_cluster_hamiltonian": _observe_hamiltonian,
    "spinops.operator_set": _observe_operator_set,
    "fitkit.fit": _observe_fit,
}


@contextmanager
def traced(modules: dict):
    """Install every wrap point for the body of the ``with``; yields the Tracer."""
    check_wrap_points(modules)
    tracer = Tracer()
    originals = [(modules[m], a, getattr(modules[m], a)) for m, a, _ in WRAP_POINTS]
    eigh = np.linalg.eigh

    def traced_eigh(a, *args, **kwargs):
        span = f"{tracer.enclosing_module()}.eigh"
        index = tracer.open(span)
        try:
            result = eigh(a, *args, **kwargs)
        finally:
            tracer.close(index)
        arr = np.asarray(a)
        flops = EIGH_FLOPS_PER_N3 * math.prod(arr.shape[:-2]) * arr.shape[-1] ** 3
        if np.iscomplexobj(arr):
            flops *= COMPLEX_FLOP_FACTOR
        tracer.counts[span + ".flops_computed"] += flops
        return result

    cache = modules["spinops"].operator_set.cache_info
    before = cache()
    try:
        for (module, attr, fn), (_, _, span) in zip(originals, WRAP_POINTS):
            setattr(module, attr, tracer.wrap(span, fn, OBSERVERS.get(span)))
        np.linalg.eigh = traced_eigh
        yield tracer
    finally:
        np.linalg.eigh = eigh
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    after = cache()
    tracer.counts["spinops.operator_set.hits"] = after.hits - before.hits
    tracer.counts["spinops.operator_set.misses"] = after.misses - before.misses


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced pass: {name: (value, unit)}."""
    calls, self_s = tracer.summary()
    c = tracer.counts
    out = {}
    for span in SPANS + tuple(sorted(set(calls) - set(SPANS))):
        out[f"{span}.calls"] = (calls[span], "count")
        if span != "cli.main":  # its self time is unattributed_s, below
            out[f"{span}.self_s"] = (self_s[span], "s")
    out["network.generate_network.sites"] = (c["network.generate_network.sites"], "count")
    out["network.generate_network.redraws"] = (
        calls["network.generate_network"] - sum(calls[b] for b in NETWORK_BUILDERS), "count")
    pairs = c["transport.build_rates.pairs"]
    out["transport.build_rates.pairs"] = (pairs, "count")
    out["transport.build_rates.pairs_kept_frac"] = (c["transport.build_rates.pairs_kept"] / pairs if pairs else 0.0, "frac")
    useful = c["transport.average_msd.realizations"]
    tried = c["transport.average_msd.integrations"]
    out["transport.average_msd.realizations"] = (useful, "count")
    out["transport.average_msd.probes"] = (tried - useful, "count")
    out["transport.average_msd.useful_frac"] = (useful / tried if tried else 0.0, "frac")
    for span in EIGH_SPANS:
        out[f"{span}.flops_computed"] = (c[f"{span}.flops_computed"], "flop")
    out["spinops.build_cluster_hamiltonian.dim_sum"] = (c["spinops.build_cluster_hamiltonian.dim_sum"], "count")
    out["spinops.operator_set.hits"] = (c["spinops.operator_set.hits"], "count")
    out["spinops.operator_set.misses"] = (c["spinops.operator_set.misses"], "count")
    out["spinops.operator_set.bytes_computed"] = (sum(7 * n * 4**n * 16 for n in tracer.operator_sizes), "B")
    out["fitkit.fit.nfev"] = (c["fitkit.fit.nfev"], "count")
    out["fitkit.fit.unconverged"] = (c["fitkit.fit.unconverged"], "count")
    out["unattributed_s"] = (self_s["cli.main"], "s")
    return out
