"""spinnet benchmark: one workload, closed loop, through the real CLI entry point.

    python3 perfbench/run.py --workload diffusion --seed 0 --seconds 20 --trace 0

One caller runs passes back to back in this process after one warm-up
pass; a pass is every ``spinnet.cli.main`` call of the workload (see
workloads.py).  Each pass's headline numbers are checked against
reference.json within ``rtol``; a pass that raises, exits non-zero or
misses the check counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import the CLI and validate a config, started
after every pass so that they spread over the window like the passes),
``time_to_result_s`` (median pass wall time) and ``peak_rss_mb``, and
prints ``ops_attempted`` and ``ops_failed``, which count every pass run,
the warm-up included, and are the result's ``attempted`` and ``failed``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, the tracing overhead and the time no
module span claims; a traced pass must reproduce the untraced headline
numbers bit for bit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit.  A full report (environment fingerprint,
pass times, CSV SHA-256 digests, all per-layer metrics) and, for traced
runs, the raw spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import harness

# Fresh-interpreter set-up samples taken after every untraced pass.  A
# burst of samples before the passes would put any drift of the host on
# one side; interleaved, set-up and passes see the same host.
SETUP_PER_ROUND = 2
# Relative tolerance of the headline check.  It sits far above the ~6e-11
# drift D_inf shows between one and two BLAS threads and far below any
# change of the physics.
RTOL = 1e-6


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and no reference check, for the benchmark's own tests")
    return p.parse_args(argv)


def _listed(kind: str) -> dict:
    """Metrics BENCHMARK.json names for the result line.

    Its per-layer list is every metric tracing.layer_metrics reports plus
    the tracing overhead, so a span a workload never enters reads zero.
    """
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _percentile_line(times) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"median of n={n}; no percentile has 10 samples beyond it"
    return f"median of n={n}; p{100 * (n - 10) / n:.0f} = {sorted(times)[n - 11]:.4f} s"


def main(argv=None) -> int:
    args = _parse(argv)
    harness.pin_threads()
    harness.import_spinnet()
    import tracing
    import workloads
    from spinnet import cli

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    reference = None
    if not args.smoke:
        reference = workloads.load_reference()["workloads"][workload.name][str(seed)]
    modules = tracing.load_modules()
    if args.trace:
        tracing.check_wrap_points(modules)
    env = harness.fingerprint()
    out_dir = harness.OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    attempted = 0
    setup = []
    failures = []
    untraced, traced = [], []  # (seconds, headline, digests)
    layer_runs, span_dumps = [], []

    def one_pass(trace: bool):
        """Run and check one pass; returns (seconds, headline, digests) or None."""
        nonlocal attempted
        attempted += 1
        try:
            start = time.perf_counter()
            if trace:
                with tracing.traced(modules) as tracer:
                    main_fn = tracer.wrap("cli.main", cli.main)
                    headline, digests = harness.run_pass(main_fn, workload, seed, args.smoke, out_dir / "pass")
            else:
                headline, digests = harness.run_pass(cli.main, workload, seed, args.smoke, out_dir / "pass")
            elapsed = time.perf_counter() - start
        except Exception:  # a failing pass is counted and the run goes on
            failures.append(traceback.format_exc())
            return None
        problems = []
        if reference is not None:
            problems = harness.compare_headline(headline, reference["headline"], RTOL)
        # the first pass is untraced, so this also holds traced passes to bit identity
        if untraced and headline != untraced[0][1]:
            problems.append(f"headline {headline} differs from the run's first pass {untraced[0][1]}")
        if problems:
            failures.append(f"{'traced' if trace else 'untraced'} pass output check: " + "; ".join(problems))
            return None
        if trace:
            layer_runs.append(tracing.layer_metrics(tracer))
            span_dumps.append(tracer.spans)
        return elapsed, headline, digests

    warm = one_pass(False)
    if warm is not None:
        untraced.append(warm)
    # Start another round only if it should end inside the window.
    modes = (False, True) if args.trace else (False,)
    timed, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for trace in modes:
            result = one_pass(trace)
            if result is not None:
                (traced if trace else untraced).append(result)
                if not trace:
                    timed.append(result[0])
        if not args.trace:
            setup.extend(harness.measure_setup(SETUP_PER_ROUND))
        rounds.append(time.perf_counter() - round_start)
        window_s = time.perf_counter() - start
        if window_s + statistics.median(rounds) > args.seconds:
            break

    failed = len(failures)
    correct = failed == 0 and (bool(traced) if args.trace else bool(timed))
    digests = untraced[-1][2] if untraced else {}
    rows, layers = {}, {}
    if timed:
        pass_s = statistics.median(timed)
        if setup:
            rows["setup_s"] = (statistics.median(setup), "s")
        rows["time_to_result_s"] = (pass_s, "s")
        rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    rows["ops_attempted"] = (attempted, "count")
    rows["ops_failed"] = (failed, "count")
    if traced and timed:
        for name, (_, unit) in layer_runs[-1].items():
            layers[name] = (statistics.median(run[name][0] for run in layer_runs if name in run), unit)
        traced_s = statistics.median(t[0] for t in traced)
        layers["tracing_overhead_frac"] = ((traced_s - pass_s) / pass_s, "frac")

    print(f"perfbench {workload.name} seed={args.seed} (input seed {seed}) trace={args.trace} "
          f"smoke={args.smoke} window={window_s:.2f}s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in rows.items():
        note = {"time_to_result_s": f"  ({_percentile_line(timed)})",
                "setup_s": f"  (median of n={len(setup)} fresh interpreters)"}.get(name, "")
        print(f"  {name:<52} {value:>16.6g} {unit}{note}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    if layers:
        print(f"  unattributed share of an untraced pass: {layers['unattributed_s'][0] / pass_s:.3%}")
    ref_digests = reference.get("csv_sha256") if reference else None
    for name, digest in digests.items():
        same = "" if ref_digests is None else ("  identical to reference" if ref_digests.get(name) == digest else "  DIFFERS from reference")
        print(f"  csv sha256 {name} {digest}{same}")
    for failure in failures:
        print("FAILED " + failure.strip().replace("\n", "\n  "), file=sys.stderr)

    report = {
        "workload": workload.name, "seed": args.seed, "input_seed": seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "rtol": RTOL, "window_s": window_s,
        "setup_samples_s": setup, "pass_seconds": timed, "traced_pass_seconds": [t[0] for t in traced],
        "headline": untraced[-1][1] if untraced else None, "csv_sha256": digests,
        "csv_sha256_reference": ref_digests, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**rows, **layers}.items()},
    }
    harness.write_json(out_dir / "report.json", report)
    if span_dumps:
        harness.write_json(out_dir / "spans.json", {"fields": ["name", "start", "end", "parent"], "passes": span_dumps})

    listed = _listed("per_layer" if args.trace else "end_to_end")
    source = layers if args.trace else rows
    metrics = {name: {"value": source[name][0], "unit": source[name][1]} for name in listed if name in source}
    correct = correct and all(metrics.get(n, {}).get("unit") == u for n, u in listed.items())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as err:  # report and exit non-zero without printing a result
        traceback.print_exc()
        sys.exit(f"perfbench: {err}")
