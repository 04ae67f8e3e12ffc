"""Semiclassical polarization transport on disordered spin networks.

Hartmann-Hahn matched flip-flop channels give golden-rule rates between
sites; polarization then obeys the linear lattice master equation
dP_i/dt = sum_j R_ij (P_j - P_i) - P_i / T1rho_i.  The generator is a
constant symmetric positive-semidefinite matrix, propagated one of two
ways, one per caller:

* the protocol propagates every site's state anew each cycle, so it takes
  the dense eigendecomposition: one :func:`factor_generator` call per
  network, then :meth:`Generator.propagate` for every time and initial
  state;
* the diffusion pipeline only ever propagates the unit vector at the
  source, so :func:`lanczos_basis` builds the generator as a sparse
  Laplacian straight from the pair rates and grows a Lanczos basis from
  that vector until an a-posteriori error estimate falls below
  ``LANCZOS_TOL`` over the time grid (exact once the basis spans the
  network).

Only the diffusion path goes through :func:`integrate_master_equation`,
which checks conservation and the maximum principle; the protocol steps
with :meth:`Generator.decay`/:meth:`Generator.evolve` and its readout with
:meth:`Generator.propagate`.  The dense path and an explicit Runge-Kutta
integration in the tests are the cross-checks.

The diffusion analysis follows the mean-squared displacement of the
polarization cloud about the source, fits the slope inside a window bounded
below by the one-hop distance and above by the box, and removes the finite
box by a linear extrapolation in 1/L.  Every function returns numbers, of
which :mod:`spinnet.experiments` lays out every artifact and run record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import fitkit
from .constants import J0_MHZ_NM3
from .network import (
    Placement,
    Species,
    SpinNetwork,
    assign_detunings,
    box_side,
    centred_box,
    generate_network,
    mean_spacing,
    species_code,
)
from .spinops import _PAIR_TERMS, _dipolar_term, effective_rabi, nv_scaling

__all__ = [
    "RateMatrix",
    "PairTable",
    "Generator",
    "MsdCurve",
    "WindowError",
    "ConservationError",
    "pair_table",
    "build_rates",
    "factor_generator",
    "LanczosBasis",
    "lanczos_basis",
    "integrate_master_equation",
    "msd",
    "extract_diffusion",
    "finite_size_extrapolate",
    "diffusion_length",
    "transport_network",
    "ScalingResult",
    "diffusion_scaling",
]

RATE_FLOOR_MHZ = 1e-6
# Hartmann-Hahn linewidth (MHz) of every pair rate, in the protocol and in
# the diffusion pipeline alike; no run setting changes it
GAMMA_MHZ = 0.15
# Distance (nm) beyond which no pair rate reaches RATE_FLOOR_MHZ: the largest
# conceivable |J~| at distance r is J0/r^3 (angular factor 2, double NV
# scaling 2, inter prefactor 1/4, unit projections)
RATE_CUTOFF_NM = (2.0 * J0_MHZ_NM3**2 / (GAMMA_MHZ * RATE_FLOOR_MHZ)) ** (1.0 / 6.0)


class WindowError(RuntimeError):
    pass


class ConservationError(RuntimeError):
    """A propagated state broke a conservation law or the maximum principle."""


@dataclass
class RateMatrix:
    """Symmetric pair-rate matrix in MHz."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rate matrix must be square")
        if not np.array_equal(r, r.T):
            raise ValueError("rates must be exactly symmetric")
        if np.any(np.diag(r) != 0):
            raise ValueError("rate matrix diagonal must be zero")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("rates must be finite and nonnegative")
        self.rates = r

    @property
    def n_sites(self) -> int:
        return self.rates.shape[0]


# Pair prefactor of build_rates: the dressed-frame flip-flop weight c/J of
# the cluster builder, 1/4 across groups (row 0) or 1/8 for degenerate pairs
# (row 1), times sqrt(2) per NV of the pair (column = NV count).
_PAIR_FACTOR = np.array([[nv_scaling(_PAIR_TERMS[True, same][0], k) for k in range(3)] for same in (False, True)])


@dataclass(frozen=True)
class PairTable:
    """The drive-independent part of :func:`build_rates` for one network.

    One entry per site pair ``i < j`` that lies within
    :data:`RATE_CUTOFF_NM`: ``r`` the pair distance (nm) and ``fj`` the
    bare dipolar coupling J_ij times its pair prefactor (MHz).
    ``detunings`` is a copy of the site detunings (MHz).  One table serves
    every drive amplitude.
    """

    i: np.ndarray
    j: np.ndarray
    r: np.ndarray
    fj: np.ndarray
    detunings: np.ndarray
    n_sites: int


def _pair_geometry(pos, i, j, axis) -> tuple:
    """Distance and cosine to ``axis`` of each pair's separation pos[j] - pos[i].

    A function of its own so that the (pairs, 3) separations, the largest
    array of :func:`pair_table`, are freed before the couplings are formed.
    """
    rvec = pos.take(j, axis=0)
    rvec -= pos.take(i, axis=0)
    # this sum of squares is np.linalg.norm(rvec, axis=-1) bit for bit, and
    # rvec @ axis below stays one BLAS call: per-coordinate products round
    # differently, and every rate must equal the per-site reference
    rx, ry, rz = rvec.T
    r = np.sqrt(rx * rx + ry * ry + rz * rz)
    cos = rvec @ axis
    cos /= r
    return r, cos


def pair_table(net: SpinNetwork) -> PairTable:
    """Distances and prefactored dipolar couplings of the pairs within
    :data:`RATE_CUTOFF_NM`.

    The pairs come from a k-d tree over the positions, queried a relative
    1e-9 beyond the cutoff (or the exclusion radius, if that is longer), so
    rounding in the tree's distances cannot drop a pair that
    :func:`build_rates` keeps.  The prefactor is 1/8 for degenerate pairs
    (equal :attr:`~spinnet.network.SpinNetwork.group_key`) and 1/4
    otherwise, times sqrt(2) per NV of the pair.  Raises ValueError when
    two sites sit closer than the exclusion radius.
    """
    pos = net.positions
    exclusion = net.spec.exclusion_nm
    radius = max(RATE_CUTOFF_NM, exclusion) * (1.0 + 1e-9)
    # imported on first use, so that commands without transport never load it
    from scipy.spatial import cKDTree

    i, j = cKDTree(pos).query_pairs(radius, output_type="ndarray").T.copy()
    r, cos = _pair_geometry(pos, i, j, net.spec.field_axis_unit)
    if exclusion > 0 and r.size and r.min() < exclusion - 1e-9:
        raise ValueError("network violates its exclusion radius")
    j_bare = _dipolar_term(cos, r)
    key = net.group_key
    n_nv = (net.species == species_code(Species.NV)).astype(np.intp)
    same = (key[i] == key[j]).astype(np.intp)
    factor = _PAIR_FACTOR.ravel().take(same * 3 + n_nv[i] + n_nv[j])
    # the rate multiplies factor * j_bare first, so caching it keeps every
    # rate bit-equal to the one-step product
    return PairTable(i, j, r, factor * j_bare, net.detunings.copy(), net.n_sites)


def _pair_rates(pairs: PairTable, omega_mhz: float) -> np.ndarray:
    """The rate of each pair of ``pairs`` (MHz), 0 beyond
    :data:`RATE_CUTOFF_NM`: the one rate formula of :func:`build_rates` and
    :func:`lanczos_basis`."""
    if omega_mhz <= 0:
        raise ValueError("drive amplitude must be positive")
    om_eff = np.array([effective_rabi(omega_mhz, d) for d in pairs.detunings.tolist()])
    sin_t = omega_mhz / om_eff  # sin(theta) per site, the transverse projection
    i, j = pairs.i, pairs.j
    # J~ = fj * (sin_i * sin_j) and d_eff = Omega_eff,i - Omega_eff,j in one
    # expression, so no pair-length temporary outlives it; the product and
    # d_eff^2 are the same for (i, j) and (j, i), so one value serves both
    # triangles and the rates are exactly symmetric
    kept = (
        2.0 * (pairs.fj * (sin_t[i] * sin_t[j])) ** 2 * GAMMA_MHZ
        / (GAMMA_MHZ**2 + (om_eff[i] - om_eff[j]) ** 2)
    )
    kept[pairs.r > RATE_CUTOFF_NM] = 0.0
    return kept


def build_rates(pairs: PairTable, omega_mhz: float) -> RateMatrix:
    """Golden-rule flip-flop rates between every pair of dressed sites.

    J~_ij = (J_ij/8 for degenerate pairs, J_ij/4 otherwise) sin(theta_i)
    sin(theta_j) with NV scaling inside J_ij, and
    R_ij = 2 |J~|^2 Gamma / (Gamma^2 + (Omega_eff,i - Omega_eff,j)^2)
    at the linewidth Gamma = :data:`GAMMA_MHZ`.

    J~ (the dressed cluster Hamiltonian's flip-flop element, tilted),
    Gamma (the line's half-width) and the mismatch Delta of the dressed
    frequencies are plain frequencies in MHz; the master equation applies
    R per us, with no 2 pi.  A dressed pair whose coherence decays at
    2 pi Gamma per us transfers at 2 pi R per us, to O((J~/Gamma)^2).
    A pair is degenerate when both sites share species and group.  Pairs
    whose best-case rate falls below 1e-6 MHz, those beyond
    :data:`RATE_CUTOFF_NM`, are dropped.

    ``pairs`` is the :func:`pair_table` of the network (distances and
    prefactored couplings of the pairs within the cutoff, independent of
    the drive); this step applies the drive-dependent tilt, Lorentzian and
    cutoff to those pairs and scatters them into a dense matrix, so a
    drive sweep computes the table of each network once.

    The matrix is exactly symmetric, R_ij == R_ji bit for bit, so the
    generator built from it is an exact symmetric Laplacian.
    """
    kept = _pair_rates(pairs, omega_mhz)
    rates = np.zeros((pairs.n_sites, pairs.n_sites))
    rates[pairs.i, pairs.j] = kept
    rates[pairs.j, pairs.i] = kept
    return RateMatrix(rates)


@dataclass(frozen=True)
class Generator:
    """Eigendecomposition of the master-equation generator of one network.

    The generator is M = diag(sum_j R_ij + 1/T1rho_i) - R, so that
    dP/dt = -M P and P(t) = evecs exp(-evals t) evecs^T P(0).
    """

    rates: RateMatrix
    relax: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.rates.n_sites

    def decay(self, times) -> np.ndarray:
        """exp(-evals t), one row per time; a scalar time gives one row.

        FloatingPointError when a factor overflows: an eigenvalue below
        zero by more than rounding, as when the relaxation rates swamp the
        pair rates by ~1e16 and the eigensolver resolves only the former.
        """
        with np.errstate(over="raise"):
            return np.exp(-np.outer(times, self.evals))

    def evolve(self, p0, decay) -> np.ndarray:
        """P(t) for the mode decay of each time (one row per time).

        The work is one matrix product: the mode amplitudes
        exp(-evals t) evecs^T P(0) of every time, times evecs^T.  A loop
        that steps by one fixed time takes :meth:`decay` once and this
        product per step.
        """
        return (decay * (self.evecs.T @ p0)) @ self.evecs.T

    def propagate(self, p0, times) -> np.ndarray:
        """P(t) at each time (one row per time)."""
        return self.evolve(p0, self.decay(times))


def factor_generator(rates: RateMatrix, relax=None) -> Generator:
    """Diagonalize the symmetric generator once; ``relax`` holds 1/T1rho per site (default 0)."""
    relax = np.zeros(rates.n_sites) if relax is None else np.asarray(relax, dtype=float)
    evals, evecs = np.linalg.eigh(np.diag(rates.rates.sum(axis=1) + relax) - rates.rates)
    return Generator(rates, relax, evals, evecs)


# Largest a-posteriori error estimate (Saad 1992), relative to |P(0)|, that a
# Lanczos basis may leave at any time of the grid it propagates
LANCZOS_TOL = 1e-12
# Lanczos steps taken between two evaluations of that estimate
_LANCZOS_BLOCK = 16


class LanczosBasis:
    """exp(-t M) P(0) on a growing Lanczos basis of the sparse generator M,
    for P(0) a multiple of the unit vector at the ``source`` site.

    ``generator`` is M as a sparse (CSR) matrix without relaxation.  The
    basis starts at q_0 = e_source; each new vector M q_k takes the
    three-term recurrence and then one Gram-Schmidt pass against every
    earlier vector (full reorthogonalization), so Q M Q^T is the
    tridiagonal T with diagonal alpha and off-diagonal beta.  With
    T = S diag(theta) S^T,

        exp(-t M) e_source ~ Q^T S exp(-t theta) S^T e_1

    (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).  Saad's
    a-posteriori estimate of the error (SIAM J. Numer. Anal. 29, 209
    (1992)), beta_m |e_m^T T^-1 (1 - exp(-t T)) e_1|, decides how far the
    basis grows: :meth:`propagate` adds steps, ``_LANCZOS_BLOCK`` at a time,
    until the estimate is at most ``LANCZOS_TOL`` at every time of its grid.
    The basis is complete, and the result exact, at m = n sites or when
    the residual vanishes; it never grows past that.  A longer grid extends
    the same basis, so every grid of one network costs one basis.
    """

    def __init__(self, generator, source: int):
        self.generator = generator
        self.n_sites = generator.shape[0]
        self.source = source
        self.relax = np.zeros(self.n_sites)  # the transport generator has none
        self.error = math.inf  # the estimate at the last grid propagated
        self._q = np.zeros((min(self.n_sites, 4 * _LANCZOS_BLOCK), self.n_sites))
        self._q[0, source] = 1.0
        self._alpha = []
        self._beta = []  # _beta[k]: norm of the residual after step k
        self._ritz = None  # (m, theta, S) of the last eigendecomposition of T

    @property
    def m(self) -> int:
        """Dimension of the basis."""
        return len(self._alpha)

    @property
    def complete(self) -> bool:
        return self.m == self.n_sites or (self.m > 0 and self._beta[-1] == 0.0)

    def _step(self) -> None:
        k = self.m
        q = self._q[: k + 1]
        w = self.generator @ q[k]
        # the three-term recurrence, then one Gram-Schmidt pass against the
        # whole basis for what rounding left; its k-th coefficient corrects alpha
        alpha = q[k] @ w
        w -= alpha * q[k]
        if k:
            w -= self._beta[-1] * q[k - 1]
        h = q @ w
        w -= h @ q
        beta = math.sqrt(w @ w)
        self._alpha.append(alpha + h[k])
        self._beta.append(beta)
        if k + 1 == self.n_sites or beta == 0.0:
            return
        if k + 1 == self._q.shape[0]:
            grown = np.zeros((min(2 * (k + 1), self.n_sites), self.n_sites))
            grown[: k + 1] = self._q
            self._q = grown
        self._q[k + 1] = w / beta

    def _ritz_pairs(self) -> tuple:
        """Eigenvalues theta and eigenvectors S of the current T."""
        if self._ritz is None or self._ritz[0] != self.m:
            # imported on first use, so that commands without transport never load it
            from scipy.linalg import eigh_tridiagonal

            theta, s = eigh_tridiagonal(np.array(self._alpha), np.array(self._beta[:-1]))
            self._ritz = (self.m, theta, s)
        return self._ritz[1:]

    def _estimate(self, times: np.ndarray) -> float:
        """Largest error estimate over ``times``; 0 for a complete basis."""
        if self.m == 0:
            return math.inf
        if self.complete:
            return 0.0
        theta, s = self._ritz_pairs()
        # t phi_1(-t theta) = (1 - exp(-t theta)) / theta, which is t at theta = 0
        tt = np.outer(times, theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(tt == 0.0, times[:, None], -np.expm1(-tt) / theta)
        return self._beta[-1] * float(np.max(np.abs(g @ (s[0] * s[-1])), initial=0.0))

    def propagate(self, p0, times) -> np.ndarray:
        """P(t) at each time (one row per time), growing the basis as far as ``times`` needs."""
        p0 = np.asarray(p0, dtype=float)
        off = p0.copy()
        off[self.source] = 0.0
        if off.any():
            raise ValueError("a Lanczos basis propagates only multiples of the unit vector at its source")
        times = np.asarray(times, dtype=float)
        while True:
            self.error = self._estimate(times)
            if self.error <= LANCZOS_TOL:
                break
            for _ in range(min(_LANCZOS_BLOCK, self.n_sites - self.m)):
                self._step()
                if self.complete:
                    break
        theta, s = self._ritz_pairs()
        coeffs = (np.exp(-np.outer(times, theta)) * s[0]) @ s.T
        return p0[self.source] * (coeffs @ self._q[: self.m])


def _laplacian(pairs: PairTable, rates: np.ndarray):
    """The generator diag(sum_j R_ij) - R as a CSR matrix, from the nonzero pair rates.

    The diagonal sums the rates in the pair table's order, which fixes its
    bits.  The entries then go in row by row: each row's lower triangle,
    its diagonal and its upper triangle, each in column order, so the CSR
    conversion finds every row sorted and sorts none.
    """
    # imported on first use, so that commands without transport never load it
    from scipy.sparse import csr_array

    keep = rates > 0
    i, j, r = pairs.i[keep], pairs.j[keep], rates[keep]
    n = pairs.n_sites
    diagonal = np.bincount(i, r, n) + np.bincount(j, r, n)
    # row-major order of the upper triangle, which the conversion's stable
    # bucketing by row turns into column order within each lower row too
    order = np.argsort(i * n + j)
    i, j, r = i[order].astype(np.int32), j[order].astype(np.int32), r[order]
    site = np.arange(n, dtype=np.int32)
    rows = np.concatenate([j, site, i])
    cols = np.concatenate([i, site, j])
    data = np.concatenate([-r, diagonal, -r])
    return csr_array((data, (rows, cols)), shape=(n, n))


def lanczos_basis(net: SpinNetwork, omega_mhz: float) -> LanczosBasis:
    """The Lanczos basis of ``net``'s transport generator, started at site 0.

    The generator is formed as a sparse Laplacian straight from the pair
    rates of :func:`build_rates` (the same formula, pair for pair), with
    no dense matrix.
    """
    pairs = pair_table(net)
    return LanczosBasis(_laplacian(pairs, _pair_rates(pairs, omega_mhz)), 0)


def integrate_master_equation(gen: Union[Generator, LanczosBasis], p0, times_us) -> np.ndarray:
    """The polarization at each of the requested times, one row per time
    and one column per site, from the lattice master equation.

    ``gen`` is the diagonalized generator from :func:`factor_generator`,
    relaxation included, so the solution is exact at any time and several
    time grids cost one diagonalization; or the :class:`LanczosBasis` of a
    transport network, for a start at its source.  Without relaxation the
    total polarization is verified to be conserved to 1e-6 and the
    solution to respect the maximum principle.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (gen.n_sites,):
        raise ValueError("initial polarization length must match the generator")
    times = np.asarray(times_us, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    traj = gen.propagate(p0, times)

    if not gen.relax.any():
        tot0 = p0.sum()
        drift = np.abs(traj.sum(axis=1) - tot0)
        ref = max(abs(tot0), np.abs(p0).max(), 1e-12)
        if drift.max() > 1e-6 * ref:
            raise ConservationError("total polarization drifted beyond 1e-6 without relaxation")
        lo, hi = p0.min(), p0.max()
        tol = 1e-9 * max(abs(lo), abs(hi), 1.0)
        if traj.min() < lo - tol or traj.max() > hi + tol:
            raise ConservationError("maximum principle violated without relaxation")
    return traj


@dataclass
class MsdCurve:
    times_us: np.ndarray
    msd_nm2: np.ndarray
    sem_nm2: Optional[np.ndarray] = None
    # Lanczos basis dimension and final error estimate of each realization
    basis_dims: Optional[np.ndarray] = None
    basis_errors: Optional[np.ndarray] = None


def msd(times_us, polarization, positions_nm, source_index: int) -> MsdCurve:
    """Polarization-weighted mean-squared displacement about the source of
    the (times x sites) ``polarization`` at ``times_us``."""
    pos = np.asarray(positions_nm, dtype=float)
    r2 = np.sum((pos - pos[source_index]) ** 2, axis=1)
    tot = polarization.sum(axis=1)
    if np.any(tot <= 0):
        raise ValueError("total polarization must stay positive for the MSD")
    return MsdCurve(times_us, (polarization @ r2) / tot)


def _window(d_avg_nm: float, box_nm: float) -> tuple:
    """The MSD analysis window [d_avg^2, 0.5 (L/2)^2]; WindowError when it is empty."""
    lo = d_avg_nm**2
    hi = 0.5 * (box_nm / 2.0) ** 2
    if hi <= lo:
        raise WindowError(
            f"analysis window is empty: box {box_nm:g} nm gives MSD ceiling "
            f"{hi:g} nm^2 below the one-hop floor {lo:g} nm^2; use a larger box"
        )
    return lo, hi


def extract_diffusion(curve: MsdCurve, d_avg_nm: float, box_nm: float) -> fitkit.FitResult:
    """Linear fit of the MSD inside the window [d_avg^2, 0.5 (L/2)^2].

    The box's diffusion coefficient D_L is the fit's ``slope``/6, with
    sigma ``sigma("slope")``/6; the curve's SEM weights the fit by the
    rule of :func:`fitkit.linear_fit`.
    """
    lo, hi = _window(d_avg_nm, box_nm)
    inside = (curve.msd_nm2 >= lo) & (curve.msd_nm2 <= hi)
    if inside.sum() < 2:
        raise WindowError(
            f"only {int(inside.sum())} MSD points inside [{lo:g}, {hi:g}] nm^2; "
            "the curve saturates before the window opens; use a larger box "
            "or a longer time grid"
        )
    t = curve.times_us[inside]
    y = curve.msd_nm2[inside]
    sem = None if curve.sem_nm2 is None else curve.sem_nm2[inside]
    return fitkit.linear_fit(t, y, sigma=sem)


def finite_size_extrapolate(box_sizes_nm, d_values, sigmas=None) -> fitkit.FitResult:
    """Weighted linear fit of D_L vs 1/L.

    D at L -> inf, D_inf, is the fit's ``intercept``, with sigma
    ``sigma("intercept")``.
    """
    L = np.asarray(box_sizes_nm, dtype=float)
    return fitkit.linear_fit(1.0 / L, d_values, sigma=sigmas)


def diffusion_length(d_nm2_per_us: float, tau_us: float) -> float:
    """Diffusion length sqrt(6 D tau), nm."""
    if d_nm2_per_us < 0 or tau_us < 0:
        raise ValueError("diffusion coefficient and time must be nonnegative")
    return math.sqrt(6.0 * d_nm2_per_us * tau_us)


def transport_network(density_ppm: float, n_p1: int, w_mhz: float, seed: int = 0, realization: int = 0) -> SpinNetwork:
    """A transport box: one polarized NV at the center plus n_p1 addressed P1.

    The box side is (n_p1 / n)^(1/3) so the P1 density is exact; every P1
    carries the addressed group tag.  Site 0 is the NV source.
    """
    net = centred_box(density_ppm, n_p1, Placement.CONTINUUM, seed, realization, generate_network)
    return assign_detunings(net, w_mhz) if w_mhz > 0 else net


def _default_time_grid(t_end_us: float, n_points: int = 48) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(max(t_end_us * 1e-4, 1e-3), t_end_us, n_points - 1)])


def _msd_curves(
    omega_mhz: float,
    density_ppm: float,
    boxes: Sequence[tuple],
    n_realizations: int,
    w_mhz: float,
) -> list:
    """(curve, box_nm) of each ``(n_p1, seed)`` of ``boxes``, in that order.

    Two :func:`fitkit.map_realizations` calls run every realization, each
    over a task list ordered largest box first, so that the longest tasks
    start first and the short ones fill the tail (Graham, SIAM J. Appl.
    Math. 17, 416 (1969)).  The probe map runs one task per box: it
    builds realization 0 and its :class:`LanczosBasis`, extends that
    basis over probe grids that end 4x later each time until the curve
    crosses the top of the analysis window, and returns the final grid
    with realization 0's row on it.  The second map runs every other
    (box, realization) on its box's grid.  This process reduces the rows,
    box by box in realization order; with more than one box and more than
    one worker that is all it does.  A map of one task runs in this
    process, so the probe of a lone box runs here.  The window top is
    :func:`_window`'s, so a box whose window is empty raises WindowError
    before either map runs.
    """
    if n_realizations < 1:
        raise ValueError("the MSD average needs at least one realization")
    sides = [box_side(density_ppm, n_p1) for n_p1, _ in boxes]
    # an empty window needs no realization to show
    tops = [_window(mean_spacing(density_ppm), side)[1] for side in sides]
    order = sorted(range(len(boxes)), key=lambda k: -boxes[k][0])

    def realization(k, r):
        """The row of realization ``r`` of box ``k`` as a function of the
        time grid; every grid extends the one basis."""
        n_p1, seed = boxes[k]
        net = transport_network(density_ppm, n_p1, w_mhz=w_mhz, seed=seed, realization=r)
        basis = lanczos_basis(net, omega_mhz)
        p0 = np.zeros(net.n_sites)
        p0[0] = 1.0

        def row(times):
            c = msd(times, integrate_master_equation(basis, p0, times), net.positions, 0)
            return c.msd_nm2, basis.m, basis.error

        return row

    def probe(i):
        k = order[i]
        row = realization(k, 0)
        t_end = 100.0
        for _ in range(8):
            times = _default_time_grid(t_end)
            first = row(times)
            if first[0].max() >= tops[k]:
                return times, first
            t_end *= 4.0
        times = _default_time_grid(t_end)
        return times, row(times)

    # the pair table's k-d tree, the sparse Laplacian and the tridiagonal
    # eigensolver: imported before the maps fork, so that their workers
    # inherit them
    import scipy.linalg
    import scipy.sparse
    import scipy.spatial

    probes = dict(zip(order, fitkit.map_realizations(probe, len(order))))
    tasks = [(k, r) for k in order for r in range(1, n_realizations)]

    def rest(i):
        k, r = tasks[i]
        return realization(k, r)(probes[k][0])

    rows = {k: [first] for k, (_, first) in probes.items()}
    for (k, _), one in zip(tasks, fitkit.map_realizations(rest, len(tasks))):
        rows[k].append(one)

    out = []
    for k, side in enumerate(sides):
        curves, dims, errors = zip(*rows[k])
        mean, sem = fitkit.reduce_mean_sem(curves)
        out.append((MsdCurve(probes[k][0], mean, sem, np.array(dims), np.array(errors)), side))
    return out


def average_msd(
    omega_mhz: float,
    density_ppm: float,
    n_p1: int,
    n_realizations: int,
    w_mhz: float,
    seed: int = 0,
) -> tuple:
    """Disorder-averaged MSD curve for one box size: the one-box case of
    :func:`diffusion_scaling`'s schedule, on the same two maps.

    Each realization is propagated from its source on one
    :class:`LanczosBasis`.  The time grid end is chosen adaptively on the
    first realization so the curve crosses the top of the analysis
    window; every probe grid and the final grid of that realization extend
    the same basis.  The probe, a map of one task, runs in this process;
    the other realizations run on the second map.  The curve records each
    realization's basis dimension and final error estimate.  Returns
    (curve, box_nm); a box whose analysis window is empty raises
    WindowError before any realization runs.  Not in ``__all__``: no
    runner calls it.
    """
    return _msd_curves(omega_mhz, density_ppm, [(n_p1, seed)], n_realizations, w_mhz)[0]


@dataclass
class ScalingResult:
    """D_L per box size, in ``n_list`` order, and its 1/L extrapolation; numbers
    only, of which :mod:`spinnet.experiments` lays out every artifact and run record."""

    box_sizes_nm: list
    d_values: list
    d_sigmas: list
    extrapolation: fitkit.FitResult  # finite_size_extrapolate of d_values; D_inf = extrapolation["intercept"]
    # per box size, each realization's Lanczos basis dimension and final error estimate
    basis_dims: list
    basis_errors: list


def diffusion_scaling(
    omega_mhz: float,
    density_ppm: float,
    n_list: Sequence[int],
    n_realizations: int,
    w_mhz: float,
    seed: int = 0,
) -> ScalingResult:
    """D_L across box sizes plus the 1/L extrapolation to D_inf.

    Box ``n_p1`` gets the :func:`average_msd` curve at seed ``seed + n_p1``,
    but all boxes share one schedule of two forked maps: the adaptive
    probes of every box, then every other realization of every box, each
    map largest box first.  With more than one box and more than one
    worker this process builds no network, pair table, Laplacian or
    Lanczos basis; it only reduces the rows and fits the windows.  With
    one box the probe map has one task and runs here.  Each box's curve
    is the same bytes at any worker count and wherever the box sits in
    ``n_list``.  A box whose analysis window is empty raises WindowError
    before any realization runs.
    """
    d_avg = mean_spacing(density_ppm)
    curves = _msd_curves(omega_mhz, density_ppm, [(n_p1, seed + n_p1) for n_p1 in n_list], n_realizations, w_mhz)
    fits = [extract_diffusion(curve, d_avg, box) for curve, box in curves]
    boxes = [float(box) for _, box in curves]
    ds = [res["slope"] / 6.0 for res in fits]
    sigs = [res.sigma("slope") / 6.0 for res in fits]
    extrap = finite_size_extrapolate(boxes, ds, sigs)
    dims, errors = [c.basis_dims for c, _ in curves], [c.basis_errors for c, _ in curves]
    return ScalingResult(boxes, ds, sigs, extrap, dims, errors)
