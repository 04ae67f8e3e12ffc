"""Nonlinear least-squares and statistical utilities shared by the analysis paths.

The fitters wrap :func:`scipy.optimize.least_squares` (trust-region reflective,
finite-difference Jacobian) behind a small model registry.  Every model carries
its parameter names, bounds and an automatic initial-guess heuristic, so the
callers can fit traces without hand-tuning start values.  Guesses are computed
on data sorted by abscissa, which keeps the whole fit invariant under
reordering of the input points.

Uncertainty convention: if per-point standard deviations are supplied the
reported covariance is absolute (the weights are trusted); otherwise the
covariance is scaled by the reduced chi-square, as is customary for
unweighted fits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import BLAS_THREAD_VARS, REALIZATION_BYTES, TWO_PI

__all__ = [
    "FitError",
    "FitResult",
    "ModelSpec",
    "STRETCHED_EXP",
    "EXP_SATURATION",
    "LORENTZIAN",
    "DAMPED_COSINE",
    "fit",
    "linear_fit",
    "fit_sigma",
    "fft_spectrum",
    "spectrum_peak",
    "reduce_mean_sem",
    "WorkerLost",
    "csv_text",
]


# Function evaluations least_squares may spend on one fit
MAX_NFEV = 2000
# Smallest positive-frequency peak, relative to the largest spectrum bin,
# that counts as an oscillation
PEAK_REL_FLOOR = 1e-9


class FitError(ValueError):
    """Raised for underdetermined or otherwise unusable fit input."""


@dataclass
class FitResult:
    """Parameters, 1-sigma uncertainties and covariance of a least-squares fit."""

    param_names: tuple[str, ...]
    params: np.ndarray
    sigmas: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def sigma(self, name: str) -> float:
        return float(self.sigmas[self.param_names.index(name)])


@dataclass(frozen=True)
class ModelSpec:
    """A fittable model: y = func(x, *params) with bounds and a guess heuristic.

    ``guess(x, y)`` receives data sorted by x and returns a start vector
    clipped into the bounds before use.
    """

    name: str
    func: Callable
    param_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    guess: Callable[[np.ndarray, np.ndarray], Sequence[float]]


def _stretched_exp(t, amp, t2, beta):
    ratio = np.clip(np.asarray(t, dtype=float) / t2, 0.0, None)
    return amp * np.exp(-(ratio**beta))


def _guess_stretched_exp(x, y):
    amp = y[0] if y[0] != 0 else float(np.max(np.abs(y)) or 1.0)
    target = amp / math.e
    below = np.nonzero(y <= target if amp > 0 else y >= target)[0]
    t2 = x[below[0]] if below.size and below[0] > 0 else (x[-1] - x[0]) / 2 + x[0]
    return [amp, max(t2, 1e-9), 1.0]


STRETCHED_EXP = ModelSpec(
    name="stretched_exp",
    func=_stretched_exp,
    param_names=("amp", "t2", "beta"),
    lower=(0.0, 1e-12, 0.3),
    upper=(np.inf, np.inf, 3.0),
    guess=_guess_stretched_exp,
)


def _exp_saturation(x, amp, tau):
    return amp * (1.0 - np.exp(-np.asarray(x, dtype=float) / tau))


def _guess_exp_saturation(x, y):
    amp = float(np.mean(y[-max(1, y.size // 4):]))
    target = amp * (1.0 - 1.0 / math.e)
    crossed = np.nonzero(y >= target if amp > 0 else y <= target)[0]
    tau = x[crossed[0]] if crossed.size and x[crossed[0]] > 0 else (x[-1] - x[0]) / 3
    return [amp if amp != 0 else 1.0, max(tau, 1e-9)]


EXP_SATURATION = ModelSpec(
    name="exp_saturation",
    func=_exp_saturation,
    param_names=("amp", "tau"),
    lower=(-np.inf, 1e-12),
    upper=(np.inf, np.inf),
    guess=_guess_exp_saturation,
)


def _lorentzian(x, center, hwhm, amp, offset):
    return offset + amp * hwhm**2 / ((np.asarray(x, dtype=float) - center) ** 2 + hwhm**2)


def _guess_lorentzian(x, y):
    offset = float(np.median(y))
    idx = int(np.argmax(np.abs(y - offset)))
    amp = float(y[idx] - offset)
    half = np.abs(y - offset) > abs(amp) / 2
    span = x[-1] - x[0]
    width = 0.5 * span * half.sum() / max(len(x), 1)
    return [float(x[idx]), max(width, span / 50 if span > 0 else 1e-3), amp, offset]


LORENTZIAN = ModelSpec(
    name="lorentzian",
    func=_lorentzian,
    param_names=("center", "hwhm", "amp", "offset"),
    lower=(-np.inf, 1e-12, -np.inf, -np.inf),
    upper=(np.inf, np.inf, np.inf, np.inf),
    guess=_guess_lorentzian,
)


def _damped_cosine(t, amp, freq, phase, tau, offset):
    t = np.asarray(t, dtype=float)
    return offset + amp * np.cos(TWO_PI * freq * t + phase) * np.exp(-np.clip(t, 0, None) / tau)


def _guess_damped_cosine(x, y):
    offset = float(np.mean(y))
    amp = (float(np.max(y)) - float(np.min(y))) / 2
    dt = float(np.median(np.diff(x))) if len(x) > 1 else 1.0
    freqs, mag = fft_spectrum(y - offset, dt)
    f0 = spectrum_peak(freqs, mag)
    if f0 is None:
        f0 = 1.0 / max(x[-1] - x[0], 1e-9)
    return [amp if amp > 0 else 1.0, f0, 0.0, max(x[-1] - x[0], 1e-9), offset]


DAMPED_COSINE = ModelSpec(
    name="damped_cosine",
    func=_damped_cosine,
    param_names=("amp", "freq", "phase", "tau", "offset"),
    lower=(0.0, 0.0, -np.pi, 1e-12, -np.inf),
    upper=(np.inf, np.inf, np.pi, np.inf, np.inf),
    guess=_guess_damped_cosine,
)


def _covariance(jac, cost, n_points, n_params, absolute):
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    if not absolute and n_points > n_params:
        cov = cov * (2.0 * cost / (n_points - n_params))
    return cov


def _checked_sigma(sigma) -> np.ndarray:
    """``sigma`` as a flat float array; FitError unless every error bar is positive."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    if np.any(sigma <= 0):
        raise FitError("sigma values must be positive")
    return sigma


def fit(
    model: ModelSpec,
    xdata,
    ydata,
    sigma=None,
    p0: Optional[Sequence[float]] = None,
) -> FitResult:
    """Weighted least-squares fit of ``model`` to (xdata, ydata).

    ``sigma`` gives per-point 1-sigma errors; when present the covariance is
    absolute, otherwise it is scaled by the reduced chi-square.  A fit that
    exhausts its budget of :data:`MAX_NFEV` evaluations, or that ends on its
    (clipped) starting point, comes back with ``converged=False`` rather
    than raising; only structurally unusable input raises :class:`FitError`.
    """
    x = np.asarray(xdata, dtype=float).ravel()
    y = np.asarray(ydata, dtype=float).ravel()
    if x.size != y.size:
        raise FitError("xdata and ydata lengths differ")
    n_params = len(model.param_names)
    if x.size < n_params:
        raise FitError(
            f"{model.name}: {x.size} points cannot determine {n_params} parameters"
        )
    y_max = float(np.max(np.abs(y)))
    if 0.0 < y_max and y_max * y_max < np.finfo(float).tiny:
        # the cost 0.5 * sum(r^2) underflows to 0: the fit would stop on its
        # start point and report an exact fit with zero uncertainty
        raise FitError(f"{model.name}: data of magnitude {y_max:g} are too small to fit; their squares underflow")
    weights = None if sigma is None else 1.0 / _checked_sigma(sigma)

    # sort by x up front: makes the fit bit-identical under input reordering
    order = np.argsort(x, kind="stable")
    x = x[order]
    y = y[order]
    if weights is not None:
        weights = weights[order]
    if p0 is None:
        p0 = model.guess(x, y)
    p0 = np.clip(np.asarray(p0, dtype=float), model.lower, model.upper)
    # strictly inside the bounds, as required by the trf start point
    lo = np.asarray(model.lower)
    hi = np.asarray(model.upper)
    at_lo = p0 <= lo
    p0[at_lo] = np.where(np.isfinite(hi[at_lo]), lo[at_lo] + 1e-12 * (hi[at_lo] - lo[at_lo]), lo[at_lo] + 1e-12)

    def residuals(p):
        r = model.func(x, *p) - y
        return r * weights if weights is not None else r

    # imported on first use: scipy.optimize (which loads scipy.linalg,
    # scipy.sparse and scipy.spatial) is most of a bare CLI call's start-up,
    # and only the commands that fit need it
    from scipy.optimize import least_squares

    try:
        res = least_squares(
            residuals,
            p0,
            bounds=(model.lower, model.upper),
            method="trf",
            max_nfev=MAX_NFEV,
        )
    except ValueError as err:
        # residuals that are not finite at the start point: data or weights
        # that are not finite, or a model that overflows there
        raise FitError(f"{model.name}: {err}") from err
    cov = _covariance(res.jac, res.cost, x.size, n_params, absolute=sigma is not None)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        param_names=model.param_names,
        params=res.x,
        sigmas=sigmas,
        covariance=cov,
        residual_norm=float(np.sqrt(2.0 * res.cost)),
        converged=bool(res.status > 0) and not np.array_equal(res.x, p0),
        iterations=int(res.nfev),
    )


def linear_fit(x, y, sigma=None, through_origin: bool = False) -> FitResult:
    """Weighted linear regression, solved in centred and scaled units.

    With ``through_origin`` the model is y = slope * x, otherwise
    y = slope * x + intercept.  The abscissa is shifted to its weighted
    mean (to 0 for a through-origin fit) and divided by its largest
    remaining magnitude, the 2x2 (or 1x1) normal equations are solved in
    those units, and slope, intercept and covariance are mapped back to
    the units of ``x``.  Distinct abscissae of any magnitude, subnormal
    ones included, therefore never make the system singular; FitError
    is raised only when every centred abscissa is zero.  Covariance
    convention matches :func:`fit`.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise FitError("x and y lengths differ")
    n_params = 1 if through_origin else 2
    if x.size == 0:
        raise FitError("not enough points")
    if x.size < n_params:
        raise FitError("a line with free intercept needs at least 2 points")
    w = np.ones_like(x) if sigma is None else 1.0 / _checked_sigma(sigma) ** 2
    order = np.argsort(x, kind="stable")
    x, y, w = x[order], y[order], w[order]

    # Solve in u = (x - xbar) / scale with |u| <= 1, so that no sum of
    # squared abscissae can underflow, then map back to x units.
    xbar = 0.0 if through_origin else float(np.sum(w * x)) / float(np.sum(w))
    scale = float(np.max(np.abs(x - xbar)))
    if scale == 0:
        kind = "through-origin fit" if through_origin else "linear fit"
        raise FitError(f"degenerate abscissa for {kind}")
    u = (x - xbar) / scale
    basis = u[:, None] if through_origin else np.column_stack([u, np.ones_like(u)])
    cov = np.linalg.inv(basis.T @ (w[:, None] * basis))
    coef = cov @ (basis.T @ (w * y))
    resid = y - basis @ coef
    chi2 = float(np.sum(w * resid**2))
    if sigma is None and x.size > n_params:
        cov = cov * chi2 / (x.size - n_params)
    # slope = a / scale, intercept = b - a * xbar / scale
    to_x = np.array([[1.0, 0.0], [-xbar / scale, 1.0]])[:n_params, :n_params]
    params = to_x @ coef
    cov = to_x @ cov @ to_x.T
    params[0] /= scale
    cov[0, :] /= scale
    cov[:, 0] /= scale
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        param_names=("slope",) if through_origin else ("slope", "intercept"),
        params=params,
        sigmas=sigmas,
        covariance=cov,
        residual_norm=math.sqrt(chi2),
        converged=True,
        iterations=0,
    )


def fit_sigma(sigma) -> Optional[np.ndarray]:
    """``sigma`` as a float array when every error bar is positive, else
    None: a zero error bar (one realization, or a point every realization
    agrees on) leaves the fit unweighted, not infinitely weighted."""
    if sigma is None:
        return None
    sigma = np.asarray(sigma, dtype=float)
    return sigma if np.all(sigma > 0) else None


def fft_spectrum(trace, dt: float):
    """Magnitude spectrum of a real trace sampled every ``dt`` us.

    Returns (freqs_MHz, magnitude) including the zero-frequency bin.
    """
    trace = np.asarray(trace, dtype=float)
    if dt <= 0:
        raise FitError("dt must be positive")
    mag = np.abs(np.fft.rfft(trace))
    freqs = np.fft.rfftfreq(trace.size, d=dt)
    return freqs, mag


def spectrum_peak(freqs, magnitude):
    """Dominant positive-frequency component, refined by parabolic interpolation.

    Returns None when the positive-frequency content is negligible (flat
    trace): a peak below :data:`PEAK_REL_FLOOR` times the full spectrum
    magnitude.
    """
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    pos = freqs > 0
    if not np.any(pos):
        return None
    scale = float(np.max(magnitude))
    if scale == 0:
        return None
    mpos = magnitude[pos]
    fpos = freqs[pos]
    k = int(np.argmax(mpos))
    if mpos[k] < PEAK_REL_FLOOR * scale:
        return None
    if 0 < k < mpos.size - 1:
        denom = mpos[k - 1] - 2 * mpos[k] + mpos[k + 1]
        if denom != 0:
            shift = 0.5 * (mpos[k - 1] - mpos[k + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            df = fpos[1] - fpos[0]
            return float(fpos[k] + shift * df)
    return float(fpos[k])


def reduce_mean_sem(values) -> tuple:
    """Order-insensitive mean and standard error over realizations.

    A (realizations x points) array is reduced along axis 0 and gives
    one mean and one standard error per column, as two arrays.  Each
    column is summed exactly (``math.fsum``), so any permutation of the
    realizations produces bit-identical results.  One realization gives
    its own row and a zero standard error, which :func:`fit_sigma` reads
    as an unweighted fit.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"need a (realizations x points) array, got {arr.ndim} dimensions")
    if arr.shape[0] == 0:
        raise FitError("no values to reduce")
    columns = [_mean_sem(col.tolist()) for col in arr.T]
    return np.array([m for m, _ in columns]), np.array([s for _, s in columns])


def _mean_sem(vals: list) -> tuple[float, float]:
    n = len(vals)
    mean = math.fsum(vals) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


class WorkerLost(RuntimeError):
    """Raised when a realization worker process dies before it returns."""


# The per-realization function of the map in progress.  The workers are
# forked while it is set and read it from their copy of this module, so it
# is never pickled.
_task = None
# True in a worker: a map called inside a realization runs in place
_in_worker = False
# The most workers one map_realizations call has used since the command
# began (the command resets it); the run manifests record it
workers_used = 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _available_bytes() -> int:
    """MemAvailable of the kernel, or the free pages where it is not reported."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _blas_threads() -> Optional[int]:
    """The largest thread count the BLAS variables set, None when none sets one."""
    counts = [os.environ.get(name, "").strip() for name in BLAS_THREAD_VARS]
    counts = [int(c) for c in counts if c.isdigit() and int(c) > 0]
    return max(counts, default=None)


def worker_count(n: int) -> int:
    """Processes :func:`map_realizations` spreads ``n`` realizations over.

    The smallest of ``n``, the usable CPUs divided by the BLAS threads and
    the available memory in units of :data:`REALIZATION_BYTES`, and at
    least 1.  Without a BLAS thread variable the BLAS already threads over
    every core, so the count is 1; inside a worker it is 1 as well.
    """
    threads = _blas_threads()
    if _in_worker or threads is None:
        return 1
    return max(1, min(n, _usable_cpus() // threads, _available_bytes() // REALIZATION_BYTES))


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _run_task(r: int):
    return _task(r)


def map_realizations(fn: Callable[[int], object], n: int) -> list:
    """``[fn(r) for r in range(n)]``, the calls spread over forked workers.

    Each realization seeds its streams from its index, so the calls are
    independent and every result is the one a serial loop gives; only the
    results are pickled back, and they come in realization order.  With
    one worker (:func:`worker_count`) the loop runs in this process.  An
    exception raised by ``fn`` reaches the caller with its type; a worker
    that dies raises :class:`WorkerLost`.  Every worker has exited when
    this returns or raises.
    """
    global _task, workers_used
    workers = worker_count(n)
    workers_used = max(workers_used, workers)
    if workers == 1:
        return [fn(r) for r in range(n)]
    # imported on first use: most commands never fork
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # the fork context flushes stdout and stderr before each fork, so a
    # worker inherits no buffered output to print a second time
    _task = fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_enter_worker)
    try:
        return list(pool.map(_run_task, range(n), chunksize=max(1, n // (4 * workers))))
    except BrokenProcessPool as err:
        raise WorkerLost(f"a realization worker was lost before it returned ({err})") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _task = None


def csv_text(names: Sequence[str], *columns) -> str:
    """The CSV text of every table spinnet writes; :mod:`spinnet.experiments`,
    which lays out every artifact, is its only caller in ``src/``.

    A header line of ``names``, then one line per index of the
    equal-length ``columns``; each cell is ``repr(float(value))``, the
    shortest text that reads back to the same float.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns, strict=True))
    return "".join(line + "\n" for line in (",".join(names), *rows))
