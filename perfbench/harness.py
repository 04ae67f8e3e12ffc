"""Plumbing shared by the benchmark runner and the reference writer.

It pins BLAS threads, imports the spinnet sources of the checkout this
directory sits in (never an installed copy), records the environment
fingerprint, measures set-up time in fresh interpreters and runs one
workload pass through ``spinnet.cli.main``.

Nothing here imports numpy at module level: thread pinning only takes
effect if it happens before numpy loads its BLAS.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

# One BLAS thread on every side of every comparison: with two threads on a
# 2-core box the deer_cluster pass wandered between 2.25 and 2.93 s, with
# one it held at 4.20-4.34 s.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What a user pays on every `spinnet` call: a fresh interpreter imports the
# CLI and validates a config, which loads the JSON schema.
_SETUP_CODE = (
    "import spinnet.cli as cli; "
    "cli.validate_config({'experiment': 'diffusion', 'seed': 0})"
)


class PassError(RuntimeError):
    """A pass that exited non-zero or whose output is missing or wrong."""


def pin_threads() -> None:
    """Fix the BLAS thread count; call before anything imports numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_spinnet():
    """Import spinnet from this checkout's ``src``; exit if it is absent."""
    pkg = SRC / "spinnet"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinnet sources at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spinnet

    if Path(spinnet.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported spinnet from {spinnet.__file__}, not from {pkg}")
    return spinnet


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from its own ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "commit": _git_commit(),
    }


def measure_setup(repeats: int) -> list:
    """Wall seconds, per fresh interpreter, to import the CLI and validate a config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the sample; a blocking wait plus a kill timer does not.
        killer = threading.Timer(60.0, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return samples


def csv_digests(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*.csv"))
    }


def run_pass(main, workload, input_seed: int, smoke: bool, out_dir: Path) -> tuple:
    """One pass: every CLI call of the workload, then its headline numbers.

    ``main`` is ``spinnet.cli.main`` or a traced wrapper of it.  Returns
    (headline, csv digests); raises PassError on a non-zero exit.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for argv in workload.argvs(input_seed, out_dir, smoke):
        code = main(argv)
        if code != 0:
            raise PassError(f"spinnet {' '.join(argv)} exited with code {code}")
    try:
        headline = workload.headline(out_dir)
    except (OSError, KeyError, ValueError) as err:
        raise PassError(f"cannot read headline numbers: {err!r}") from err
    return headline, csv_digests(out_dir)


def compare_headline(headline: dict, reference: dict, rtol: float) -> list:
    """Names of headline numbers that differ from the reference beyond rtol."""
    bad = [k for k in reference if k not in headline]
    for key, ref in reference.items():
        if key in headline and not abs(headline[key] - ref) <= rtol * abs(ref):
            bad.append(f"{key}={headline[key]!r} (reference {ref!r})")
    return bad + [k for k in headline if k not in reference]


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
