"""Iterative two-phase polarization transfer on a driven spin network.

Each cycle alternates a Hartmann-Hahn exchange phase (master-equation
evolution with rotating-frame relaxation) and an optical phase that
repolarizes the sensors while the bath relaxes faster under
illumination.  The module also carries the closed-form chain from a
measured contrast amplitude to an absolute bath polarization, spin
temperature, and enhancement over thermal equilibrium.  Every function
returns numbers: :mod:`spinnet.experiments` lays out every artifact and
run record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import fitkit
from .constants import GAMMA_E_MHZ_PER_G, H_PLANCK_J_S, K_B_J_PER_K
from .network import (
    EnsembleSpec,
    Placement,
    Species,
    SpinNetwork,
    box_side,
    generate_network,
    species_code,
)
from .transport import RateMatrix, build_rates, factor_generator, pair_table

__all__ = [
    "CycleConfig",
    "ProtocolResult",
    "EquilibrationResult",
    "protocol_network",
    "run_iterative_protocol",
    "fit_saturation",
    "fit_crossover",
    "estimate_p1_polarization",
    "spin_temperature",
    "thermal_polarization",
    "enhancement",
    "readout_equilibration",
]


# Sensor and bath densities of every protocol network: the box edge follows
# from the bath density and n_p1, the sensor count from the ratio.
DENSITY_NV_PPM = 0.6
DENSITY_P1_PPM = 1.575


@dataclass(frozen=True)
class CycleConfig:
    """Timing, drive, and relaxation parameters of one transfer cycle."""

    omega_mhz: float
    t_hh_us: float
    t_laser_us: float
    n_cycles: int
    p_nv0: float
    t1rho_dark_us: float
    t1rho_laser_us: float
    t1rho_nv_us: Optional[float]
    probe_k: int

    def __post_init__(self):
        if self.omega_mhz <= 0:
            raise ValueError("drive amplitude must be positive")
        if self.t_hh_us <= 0 or self.t_laser_us <= 0:
            raise ValueError("phase durations must be positive")
        if not 2 <= self.n_cycles <= 32:
            # the two-parameter saturation fit needs at least two cycles
            raise ValueError("cycle count must lie in [2, 32]")
        if not 0.0 <= self.p_nv0 <= 1.0:
            raise ValueError("sensor reset polarization must lie in [0, 1]")
        if self.t1rho_dark_us <= 0 or self.t1rho_laser_us <= 0:
            raise ValueError("relaxation times must be positive")
        if self.t1rho_nv_us is not None and self.t1rho_nv_us <= 0:
            raise ValueError("sensor relaxation time must be positive or None")
        if self.probe_k < 1:
            raise ValueError("probe set needs at least one bath site")


@dataclass
class ProtocolResult:
    cycles: np.ndarray
    p_nv: np.ndarray
    p_p1: np.ndarray
    p_nv_sem: np.ndarray
    p_p1_sem: np.ndarray
    n_realizations: int
    saturation: fitkit.FitResult  # fit_saturation of p_p1


@dataclass
class EquilibrationResult:
    times_us: np.ndarray
    delta_c: np.ndarray
    fit: fitkit.FitResult  # amplitude fit["amp"], equilibration time tau_eq = fit["tau"]


def protocol_network(n_p1: int, w_mhz: float, seed: int = 0, realization: int = 0) -> SpinNetwork:
    """Two-species box with every site in the driven (addressed) group.

    The box edge is set by :data:`DENSITY_P1_PPM` and ``n_p1``; the
    sensor count follows from the ratio to :data:`DENSITY_NV_PPM`, and
    ``w_mhz`` is the quenched detuning spread of every site.  Like every
    generated network, all sensors share one crystallographic axis and
    all bath spins one spectral group, so every pair participates in the
    dressed exchange.
    """
    if n_p1 < 1:
        raise ValueError("need at least one bath spin")
    spec = EnsembleSpec(
        box_nm=box_side(DENSITY_P1_PPM, n_p1),
        densities_ppm={Species.NV: DENSITY_NV_PPM, Species.P1: DENSITY_P1_PPM},
        placement=Placement.CONTINUUM,
        disorder_mhz=w_mhz,
        seed=seed,
    )
    net = generate_network(spec, realization=realization)
    if net.count(Species.P1) == 0 or net.count(Species.NV) == 0:
        raise ValueError("network must contain both sensor and bath spins")
    return net


def _relaxation(net: SpinNetwork, t1rho_bath_us: float, t1rho_nv_us: Optional[float]) -> np.ndarray:
    """Rotating-frame relaxation rate per site: 1/T1rho on the bath, on the sensors 1/T1rho_nv or 0."""
    t1 = np.full(net.n_sites, t1rho_bath_us)
    t1[net.indices_of(Species.NV)] = np.inf if t1rho_nv_us is None else t1rho_nv_us
    return np.where(np.isfinite(t1), 1.0 / t1, 0.0)


def _probe_indices(net: SpinNetwork, k: int) -> np.ndarray:
    """The k bath sites nearest to the most central sensor."""
    nv = net.indices_of(Species.NV)
    p1 = net.indices_of(Species.P1)
    center = np.full(3, net.spec.box_nm / 2.0)
    probe_nv = nv[np.argmin(np.linalg.norm(net.positions[nv] - center, axis=1))]
    dist = np.linalg.norm(net.positions[p1] - net.positions[probe_nv], axis=1)
    return p1[np.argsort(dist)[: min(k, p1.size)]]


def _single_run(net: SpinNetwork, config: CycleConfig, rm: RateMatrix, probe: np.ndarray) -> tuple:
    # the sensors lead the network (see run_iterative_protocol), so the
    # sensor and bath sets are slices; sum() / count is .mean() bit for bit
    n_nv = net.count(Species.NV)
    gen = factor_generator(rm, _relaxation(net, config.t1rho_dark_us, config.t1rho_nv_us))
    laser_decay = math.exp(-config.t_laser_us / config.t1rho_laser_us)
    hh_decay = gen.decay(config.t_hh_us)  # every exchange phase lasts t_hh

    p = np.zeros(net.n_sites)
    p[:n_nv] = config.p_nv0
    traj_nv = np.empty(config.n_cycles)
    traj_p1 = np.empty(config.n_cycles)
    for cycle in range(config.n_cycles):
        p = gen.evolve(p, hh_decay)[0]
        # record at the end of the exchange phase, before the reset
        traj_nv[cycle] = p[:n_nv].sum() / n_nv
        traj_p1[cycle] = p[probe].sum() / probe.size
        p[n_nv:] *= laser_decay
        p[:n_nv] = config.p_nv0
    return traj_nv, traj_p1


def _reduce(nv_runs: np.ndarray, p1_runs: np.ndarray) -> ProtocolResult:
    # one realization reduces to its own row and a zero SEM: an unweighted fit
    n_realizations, n_cycles = nv_runs.shape
    cycles = np.arange(1, n_cycles + 1, dtype=float)
    p_nv, nv_sem = fitkit.reduce_mean_sem(nv_runs)
    p_p1, p1_sem = fitkit.reduce_mean_sem(p1_runs)
    saturation = fit_saturation(cycles, p_p1, sem=p1_sem)
    return ProtocolResult(cycles, p_nv, p_p1, nv_sem, p1_sem, n_realizations, saturation)


def run_iterative_protocol(
    factory: Callable[[int], SpinNetwork],
    configs: Sequence[CycleConfig],
    n_realizations: int,
) -> list:
    """Disorder-averaged per-cycle sensor and bath polarization, one
    :class:`ProtocolResult` per config.

    ``factory`` maps a realization index to a network whose NV sites come
    first and whose other sites are P1, as :func:`protocol_network` builds
    it; other networks raise ValueError.  Realizations form
    the outer loop: each network is built once, and its pair table
    (:func:`transport.pair_table`) and probe ranking once; then,
    for each config, the rates, the exchange-phase generator and the cycle
    loop.  Each result is reduced and given its saturation fit on its own,
    so a sequence gives the same numbers as one call per config.
    """
    def runs(r):
        one = factory(r)
        n_nv = one.count(Species.NV)
        p1_count = one.count(Species.P1)
        if n_nv == 0 or p1_count == 0:
            raise ValueError("network must contain both sensor and bath spins")
        if np.any(one.species[:n_nv] != species_code(Species.NV)):
            raise ValueError("the sensors must lead the network's sites, as generate_network orders them")
        pairs = pair_table(one)
        ranked = _probe_indices(one, p1_count)
        return [_single_run(one, c, build_rates(pairs, c.omega_mhz), ranked[: c.probe_k]) for c in configs]

    # the k-d tree of each pair table and continuum placement: imported
    # before the map forks, so that its workers inherit it
    import scipy.spatial

    rows = fitkit.map_realizations(runs, n_realizations)
    return [
        _reduce(np.array([row[k][0] for row in rows]), np.array([row[k][1] for row in rows]))
        for k in range(len(configs))
    ]


def fit_saturation(n_values, a_values, sem=None) -> fitkit.FitResult:
    """Exponential-saturation fit A(N) = A_sat (1 - exp(-N/N_sat)).

    The saturation amplitude A_sat is the fit's ``amp`` and the saturation
    cycle count N_sat its ``tau``; ``sem`` weights the fit by the rule of
    :func:`fitkit.fit_sigma`.
    """
    return fitkit.fit(fitkit.EXP_SATURATION, n_values, a_values, sigma=fitkit.fit_sigma(sem))


def _crossover_model(omega, a_inf, w):
    return a_inf * omega**2 / (omega**2 + w**2)


def _crossover_guess(x, y):
    a = float(np.max(np.abs(y))) or 1.0
    return (a, float(np.median(x)))


CROSSOVER = fitkit.ModelSpec(
    name="rabi_crossover",
    func=_crossover_model,
    param_names=("a_inf", "w"),
    lower=(0.0, 1e-6),
    upper=(np.inf, np.inf),
    guess=_crossover_guess,
)


def fit_crossover(omegas_mhz, a_sat, sigma=None) -> fitkit.FitResult:
    """Disorder-crossover fit A_sat(Omega) = A_inf Omega^2/(Omega^2 + W^2).

    The asymptote A_inf is the fit's ``a_inf`` and the crossover width W
    (MHz) its ``w``.
    """
    return fitkit.fit(CROSSOVER, omegas_mhz, a_sat, sigma=sigma)


def estimate_p1_polarization(a: float, p1_to_nv_ratio: float, p_nv0: float) -> float:
    """Absolute bath polarization from the saturated contrast amplitude.

    Polarization bookkeeping between the optically reset sensors and the
    bath gives P = P0 (A/2)(1 + n_sensor/n_bath); the ratio argument is
    n_bath/n_sensor.
    """
    if a < 0:
        raise ValueError("contrast amplitude must be nonnegative")
    if p1_to_nv_ratio <= 0:
        raise ValueError("density ratio must be positive")
    return p_nv0 * (a / 2.0) * (1.0 + 1.0 / p1_to_nv_ratio)


def _zeeman_hz(b_gauss: float) -> float:
    if b_gauss <= 0:
        raise ValueError("magnetic field must be positive")
    return GAMMA_E_MHZ_PER_G * 1e6 * b_gauss


def spin_temperature(p: float, b_gauss: float) -> float:
    """Effective temperature assigning polarization p at field B (kelvin)."""
    if p >= 1.0:
        raise ValueError("polarization must be below 1")
    if p <= 0.0:
        return math.inf
    f = _zeeman_hz(b_gauss)
    return H_PLANCK_J_S * f / (2.0 * K_B_J_PER_K * math.atanh(p))


def thermal_polarization(t_kelvin: float, b_gauss: float) -> float:
    """Equilibrium electron polarization at temperature T and field B."""
    if t_kelvin <= 0:
        raise ValueError("temperature must be positive")
    f = _zeeman_hz(b_gauss)
    return math.tanh(H_PLANCK_J_S * f / (2.0 * K_B_J_PER_K * t_kelvin))


def enhancement(p: float, p_thermal: float) -> float:
    if p_thermal <= 0:
        raise ValueError("thermal polarization must be positive")
    return p / p_thermal


def readout_equilibration(
    factory: Callable[[int], SpinNetwork],
    config: CycleConfig,
    n_realizations: int,
    times_us=None,
    p_p1: float = 0.074,
) -> EquilibrationResult:
    """Sensor contrast transient while reading out a prepared bath.

    The bath starts at +-p_p1 and the sensors at ``config.p_nv0``; the
    contrast difference between the two signs, normalized by p_nv0, rises
    as the sensors equilibrate with their local bath under the drive and
    dark relaxation of ``config``.  An exponential
    saturation fit gives the amplitude (``amp``) and the equilibration
    time tau_eq (``tau``).

    The master equation is linear, so the transient is computed by
    evolving the single difference ``plus - minus`` (zero on the sensors,
    2 * p_p1 on the bath) once.  At ``times_us == 0`` the initial state
    is returned as it is, so delta_c is exactly 0 there, and flipping
    the sign of p_p1 flips delta_c exactly.
    """
    if times_us is None:
        times_us = np.linspace(0.0, 10.0, 41)
    times_us = np.asarray(times_us, dtype=float)

    def curve(r):
        one = factory(r)
        nv = one.indices_of(Species.NV)
        p1 = one.indices_of(Species.P1)
        rm = build_rates(pair_table(one), config.omega_mhz)
        gen = factor_generator(rm, _relaxation(one, config.t1rho_dark_us, config.t1rho_nv_us))
        # plus - minus: the sensors cancel, the bath differs by 2 * p_p1
        d = np.zeros(one.n_sites)
        d[p1] = 2.0 * p_p1
        # the sensor columns of the full product: a product over the sensor
        # rows of the eigenvectors alone may round differently
        sensors = gen.propagate(d, times_us)[:, nv]
        sensors[times_us == 0] = d[nv]
        return sensors.mean(axis=1) / config.p_nv0

    # the k-d tree of each pair table and continuum placement: imported
    # before the map forks, so that its workers inherit it
    import scipy.spatial

    delta_c = fitkit.reduce_mean_sem(fitkit.map_realizations(curve, n_realizations))[0]
    return EquilibrationResult(times_us, delta_c, fitkit.fit(fitkit.EXP_SATURATION, times_us, delta_c))
