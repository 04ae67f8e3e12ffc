"""Exact state-vector DEER, Hahn-echo and Rabi runs on small spin clusters.

Clusters are :class:`~spinnet.network.SpinNetwork` columns (site 0 is the
sensor by convention), quantized along their spec's field axis.  Pulses
are instantaneous ideal rotations; free evolution uses the Hermitian
eigendecomposition of the cluster Hamiltonian, so arbitrary delay grids
cost one diagonalization per realization.  Echo signals use the
phase-cycled difference of the two final pi/2 phases, which rejects
common-mode offsets and lands the signal in [-1, 1].  The module also
carries the dephasing fit, the rate-versus-density calibration and the
concentration estimator built on it.  Every function returns numbers:
:mod:`spinnet.experiments` lays out every artifact and run record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fitkit
from .constants import J0_MHZ_NM3, MAX_CLUSTER_DIM, TWO_PI
from .fitkit import FitError, reduce_mean_sem
from .network import Placement, SpinNetwork, centred_box, generate_network, ppm_to_density
from .spinops import _SX, _SY, _SZ, Frame, build_cluster_hamiltonian

__all__ = [
    "MAX_CLUSTER_DIM",
    "TraceResult",
    "rotation_unitary",
    "sample_nv_p1_cluster",
    "default_tau_grid",
    "run_deer",
    "deer_trace",
    "run_rabi",
    "fft_peak",
    "extract_dephasing_rate",
    "mean_field_deer_rate",
    "calibrate_alpha",
    "ConcentrationEstimate",
    "estimate_concentration",
]

@dataclass
class TraceResult:
    """A disorder-averaged time trace with per-point standard errors."""

    abscissa_us: np.ndarray
    signal: np.ndarray
    sem: np.ndarray


def rotation_unitary(n_sites: int, angle_rad: float, axis: str, site_indices) -> np.ndarray:
    """Product of single-site rotations exp(-i angle S_axis) on the given sites."""
    if not math.isfinite(angle_rad):
        raise ValueError("rotation angle must be finite")
    sign = -1.0 if axis.startswith("-") else 1.0
    key = axis.lstrip("+-")
    if key not in ("x", "y"):
        raise ValueError(f"unknown rotation axis {axis!r}")
    s_op = sign * (_SX if key == "x" else _SY)
    r2 = math.cos(angle_rad / 2) * np.eye(2) - 2j * math.sin(angle_rad / 2) * s_op
    chosen = set(int(i) for i in site_indices)
    for i in sorted(chosen):
        if not 0 <= i < n_sites:
            raise ValueError(f"site index {i} is outside [0, {n_sites})")
    u = np.array([[1.0 + 0j]])
    for i in range(n_sites):
        u = np.kron(u, r2 if i in chosen else np.eye(2, dtype=complex))
    return u


def sample_nv_p1_cluster(
    density_ppm: float,
    n_bath: int,
    placement: Placement,
    seed: int = 0,
    realization: int = 0,
) -> SpinNetwork:
    """One NV sensor at the box center plus ``n_bath`` addressed P1 spins.

    The box side is chosen so the bath density equals ``density_ppm`` (the
    density of the addressed spectral group).  Bath spins share one group
    key (species P1, group 0) so they flip-flop among themselves; the NV
    differs in species and couples to them through the Ising channel.  The
    cluster keeps the bath's spec, so its field axis is the default <111>.
    """
    return centred_box(density_ppm, n_bath, placement, seed, realization, generate_network)


def default_tau_grid(density_ppm: float) -> np.ndarray:
    """48 echo delays scaled inversely with density (denser bath, faster decay)."""
    if density_ppm <= 0:
        raise ValueError("density must be positive")
    # the disorder-averaged echo decays on ~2.5/density us, so 8/density
    # reaches deep into the tail at any density
    tau_max = 8.0 / density_ppm
    return np.linspace(0.0, tau_max, 48)


def _sensor_up_probability(states: np.ndarray) -> np.ndarray:
    # the sensor is site 0, the top bit of the basis index: it is up in
    # the first half of the basis
    return np.sum(np.abs(states[: states.shape[0] // 2]) ** 2, axis=0)


def run_deer(
    cluster_factory: Callable[[int], SpinNetwork],
    tau_grid_us,
    bath_pi: bool,
    n_realizations: int = 1,
    seed: int = 0,
) -> TraceResult:
    """Phase-cycled echo with an optional recoupling pi on the bath.

    Sequence: pi/2_y - tau - pi_x (sensor, plus every bath site when
    ``bath_pi``) - tau - pi/2_{+-y}; signal = P_up(-) - P_up(+), i.e. the
    cosine of the accumulated bath phase, averaged over realizations with
    random bath product states.
    """
    tau = np.asarray(tau_grid_us, dtype=float)
    pulses = {}  # n -> (pi/2_y, pi_x, pi/2_-y); the pulses depend on nothing else

    def signal(r):
        net = cluster_factory(r)
        n = net.n_sites
        if 2**n > MAX_CLUSTER_DIM:
            raise ValueError(f"cluster dimension {2**n} exceeds the {MAX_CLUSTER_DIM} cap")
        ham = build_cluster_hamiltonian(net, Frame.LAB_SECULAR)
        evals, evecs = np.linalg.eigh(ham.matrix)

        rng = np.random.default_rng(np.random.SeedSequence([seed, r, 11]))
        bath_bits = rng.integers(0, 2, size=n - 1) if n > 1 else np.zeros(0, dtype=int)
        index = 0
        for i in range(n):
            bit = 0 if i == 0 else int(bath_bits[i - 1])
            index = (index << 1) | bit
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[index] = 1.0

        if n not in pulses:
            pulses[n] = (
                rotation_unitary(n, math.pi / 2, "y", [0]),
                rotation_unitary(n, math.pi, "x", range(n) if bath_pi else [0]),
                rotation_unitary(n, math.pi / 2, "-y", [0]),
            )
        u_half, u_pi, u_minus = pulses[n]

        phases = np.exp(-1j * TWO_PI * np.outer(evals, tau))
        evecs_h = evecs.conj().T
        c1 = evecs_h @ (u_half @ psi0)
        mid = u_pi @ (evecs @ (phases * c1[:, None]))
        states = evecs @ (phases * (evecs_h @ mid))
        p_plus = _sensor_up_probability(u_half @ states)
        p_minus = _sensor_up_probability(u_minus @ states)
        return p_minus - p_plus

    mean, sem = reduce_mean_sem(np.array(fitkit.map_realizations(signal, n_realizations)))
    return TraceResult(tau, mean, sem)


def deer_trace(
    density_ppm: float,
    n_realizations: int,
    n_bath: int,
    bath_pi: bool,
    placement: Placement,
    seed: int = 0,
) -> TraceResult:
    """Disorder-averaged NV-P1 DEER decay at the given addressed density,
    on :func:`default_tau_grid`."""
    factory = lambda r: sample_nv_p1_cluster(
        density_ppm, n_bath=n_bath, seed=seed, realization=r, placement=placement
    )
    tau = default_tau_grid(density_ppm)
    if placement is Placement.CONTINUUM:
        # the k-d tree of the exclusion test: imported before run_deer's
        # map forks, so that its workers inherit it
        import scipy.spatial
    return run_deer(factory, tau, n_realizations=n_realizations, bath_pi=bath_pi, seed=seed)


def run_rabi(omega_mhz: float, t_grid_us, detuning_mhz: float) -> TraceResult:
    """Driven single-spin evolution; returns the <sigma_z> trace.

    In the rotating frame H = Omega Sx + delta Sz, so the signal oscillates
    at sqrt(Omega^2 + delta^2) with contrast Omega^2 / (Omega^2 + delta^2).
    """
    t = np.asarray(t_grid_us, dtype=float)
    h = omega_mhz * _SX.real + detuning_mhz * _SZ.real
    evals, evecs = np.linalg.eigh(h)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    phases = np.exp(-1j * TWO_PI * np.outer(evals, t))
    states = evecs @ (phases * (evecs.conj().T @ psi0)[:, None])
    sz = np.abs(states[0, :]) ** 2 - np.abs(states[1, :]) ** 2
    return TraceResult(t, sz, np.zeros_like(t))


def fft_peak(trace: TraceResult):
    """Dominant oscillation frequency of a trace on a uniform grid, MHz."""
    t = trace.abscissa_us
    if t.size < 4:
        raise FitError("trace too short for a spectrum")
    dts = np.diff(t)
    if np.ptp(dts) > 1e-9 * dts[0]:
        raise FitError("spectrum extraction needs a uniform time grid")
    freqs, mag = fitkit.fft_spectrum(trace.signal - np.mean(trace.signal), dts[0])
    return fitkit.spectrum_peak(freqs, mag)


def extract_dephasing_rate(trace: TraceResult) -> fitkit.FitResult:
    """Stretched-exponential fit amp exp(-(t/T2)^beta) of an echo decay.

    The dephasing rate is 1/T2 with sigma sigma_T2/T2^2, where T2 is the
    fit's ``t2``; the stretch is its ``beta``.  ``trace.sem`` weights the
    fit by the rule of :func:`fitkit.fit`.
    """
    y = trace.signal
    if np.ptp(y) < 0.05 * max(np.abs(y).max(), 1e-12) or np.ptp(y) < 1e-12:
        raise FitError("trace shows no decay; dephasing rate is not identifiable")
    return fitkit.fit(fitkit.STRETCHED_EXP, trace.abscissa_us, y, sigma=trace.sem)


# The dilute-bath limit of the DEER decay: for bath spins placed uniformly
# at density n around the sensor, the echo of Ising pair phases
# phi = TWO_PI sqrt(2) J0 (1 - 3 cos^2 theta) tau / r^3 averages to
# exp(-n Int d^3r [1 - cos phi]) = exp(-k n tau), with
# k = 16 sqrt(2) pi^3 / (9 sqrt(3)) J0 (Salikhov, Dzuba & Raitsimring,
# J. Magn. Reson. 42, 255 (1981)), about 2340 nm^3/us.
_MEAN_FIELD_K_NM3_PER_US = 16.0 * math.sqrt(2.0) * math.pi**3 / (9.0 * math.sqrt(3.0)) * J0_MHZ_NM3


def mean_field_deer_rate(density_ppm: float) -> float:
    """Decay rate (MHz) of the bath-averaged DEER echo at ``density_ppm``
    in the dilute, Ising-only limit: k times the bath number density."""
    return _MEAN_FIELD_K_NM3_PER_US * ppm_to_density(density_ppm)


def calibrate_alpha(densities_ppm, rates_mhz, rate_sigmas=None) -> fitkit.FitResult:
    """Through-origin weighted fit of dephasing rate vs density; its
    ``slope`` is alpha in MHz per ppm."""
    d = np.asarray(densities_ppm, dtype=float)
    if np.unique(d).size < 2:
        raise FitError("rate-vs-density calibration needs at least two distinct densities")
    return fitkit.linear_fit(d, rates_mhz, sigma=rate_sigmas, through_origin=True)


@dataclass
class ConcentrationEstimate:
    mean_ppm: float
    sigma_ppm: float
    n_rejected: int
    rejection_warning: bool


def estimate_concentration(
    gamma_exp_mhz: float,
    gamma_sigma: float,
    k_mhz_per_group_ppm: float,
    k_sigma: float,
    n_mc: int,
    seed: int = 0,
) -> ConcentrationEstimate:
    """Monte Carlo posterior for total density = gamma_exp / K.

    Both inputs are drawn as Gaussians; K draws at or below zero are
    rejected and counted, with a warning flag past 1% rejections.
    """
    if k_mhz_per_group_ppm <= 0:
        raise FitError("K must be positive")
    rng = np.random.default_rng(seed)
    g, k = rng.normal([gamma_exp_mhz, k_mhz_per_group_ppm], [gamma_sigma, k_sigma], size=(n_mc, 2)).T
    keep = k > 0
    if not keep.any():
        raise FitError("all Monte Carlo draws rejected")
    ratio = g[keep] / k[keep]
    n_rejected = n_mc - int(keep.sum())
    return ConcentrationEstimate(
        mean_ppm=float(np.mean(ratio)),
        sigma_ppm=float(np.std(ratio, ddof=1)) if ratio.size > 1 else 0.0,
        n_rejected=n_rejected,
        rejection_warning=n_rejected > 0.01 * n_mc,
    )
