"""Spin operators, dipolar couplings, and cluster Hamiltonian construction.

Every site is an effective spin-1/2 (the NV is restricted to its {|0>,|-1>}
pair, which is why NV couplings pick up sqrt(2) factors).  Hamiltonians are
dense complex matrices in MHz on the 2^N tensor-product space, written entry
by entry from bit patterns of the basis index (site 0 is the top bit); the
2*pi enters only at propagation time.

Two frames are built here.  In the lab-secular frame, pairs with matching
transition frequencies keep their flip-flop terms and all other pairs reduce
to Ising couplings along z.  Under continuous driving (spin locking) the
roles are played by the tilted ladder operators S~+- = S^y +- i S^z, and the
surviving couplings are the dressed flip-flop terms plus an Ising term along
the drive axis x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import J0_MHZ_NM3
from .network import Species, SpinNetwork, species_code

__all__ = [
    "Frame",
    "SpinOperatorSet",
    "ClusterHamiltonian",
    "nv_scaling",
    "build_cluster_hamiltonian",
    "effective_rabi",
    "effective_disorder",
]

# The spin-1/2 matrices of the package: the cluster operators here, the
# pulses and the Rabi drive of clusterdyn
_SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
_SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2


class Frame(str, Enum):
    LAB_SECULAR = "lab_secular"
    DRESSED = "dressed"


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


class SpinOperatorSet:
    """Per-site spin-1/2 operators embedded in the 2^n product space."""

    def __init__(self, n_sites: int):
        if n_sites < 1:
            raise ValueError("need at least one site")
        self.n_sites = n_sites
        self.dim = 2**n_sites
        self.sx = [_embed(_SX, i, n_sites) for i in range(n_sites)]
        self.sy = [_embed(_SY, i, n_sites) for i in range(n_sites)]
        self.sz = [_embed(_SZ, i, n_sites) for i in range(n_sites)]
        self.sp = [x + 1j * y for x, y in zip(self.sx, self.sy)]
        self.sm = [x - 1j * y for x, y in zip(self.sx, self.sy)]
        # tilted-frame ladder operators, raising/lowering along the drive axis
        self.tp = [y + 1j * z for y, z in zip(self.sy, self.sz)]
        self.tm = [y - 1j * z for y, z in zip(self.sy, self.sz)]

    @property
    def total_sx(self) -> np.ndarray:
        return sum(self.sx)


@lru_cache(maxsize=8)
def operator_set(n_sites: int) -> SpinOperatorSet:
    return SpinOperatorSet(n_sites)


@dataclass
class ClusterHamiltonian:
    """Dense Hermitian cluster Hamiltonian in MHz.

    Hermitian by construction: the builder writes each flip entry and its
    mirror with one real value, so only the shape is checked here.
    """

    matrix: np.ndarray
    n_sites: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2**self.n_sites, 2**self.n_sites):
            raise ValueError("matrix dimension must be 2^n_sites")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dipolar(r_vec: np.ndarray, unit_axis: np.ndarray) -> float:
    """Bare dipolar coupling J0 (1 - 3 cos^2 theta) / r^3, MHz, of the
    separation ``r_vec``, theta its angle to the normalized quantization
    axis; the length is sqrt(r . r), which is what ``np.linalg.norm``
    computes for a 1-D vector."""
    r = math.sqrt(r_vec.dot(r_vec))
    if r == 0:
        raise ValueError("dipolar coupling diverges at zero separation")
    return _dipolar_term(float(r_vec.dot(unit_axis)) / r, r)


def _dipolar_term(cos, r):
    """J0 (1 - 3 cos^2 theta) / r^3, MHz, at cosine ``cos`` to the axis and
    length ``r`` (nm): floats here, one array entry per pair in
    :func:`~spinnet.transport.pair_table`."""
    return J0_MHZ_NM3 * (1.0 - 3.0 * cos**2) / r**3


def nv_scaling(j_mhz: float, n_nv_participants: int) -> float:
    """Scale a coupling by sqrt(2) per NV participant (0, 1 or 2)."""
    if n_nv_participants not in (0, 1, 2):
        raise ValueError("a pair coupling has 0, 1 or 2 NV participants")
    return j_mhz * math.sqrt(2.0) ** n_nv_participants


def _coupling_map(net: SpinNetwork) -> dict:
    """(i, j) -> the NV-scaled dipolar coupling along the spec's field axis, MHz, for i < j.

    Its per-pair ``dot`` lengths and cosines differ in the last bit from
    those of :func:`spinnet.transport._pair_geometry` (about 11% of the
    lengths and 32% of the cosines of 7-spin bath clusters), so the two
    pair paths cannot merge without moving the DEER bytes.
    """
    rows = list(net.positions)
    axis = net.spec.field_axis_unit
    axis = axis / np.linalg.norm(axis)  # normalized twice: the cluster bytes rest on this rounding
    nv = (net.species == species_code(Species.NV)).tolist()
    n = net.n_sites
    return {
        (i, j): nv_scaling(_dipolar(rows[j] - rows[i], axis), nv[i] + nv[j])
        for i in range(n)
        for j in range(i + 1, n)
    }


# frame (dressed?) -> (diagonal weight on s_i s_j, flip weights where the
# bits differ and where they agree), from c(S~+S~- + S~-S~+) = 2c(SySy + SzSz)
_FRAME_TERMS = {False: (1.0, -0.25, 0.0), True: (2.0, 0.5, -0.5)}
# (dressed frame, degenerate pair) -> (c/J, flip-flop terms written,
# -(J/2) Sx Sx weight added last).  Powers of two added in the order of the
# operator forms keep entries bit-equal to operator products.  The dressed
# c/J is also the pair prefactor of transport's golden-rule rates.
_PAIR_TERMS = {
    (False, True): (1.0, True, 0.0),
    (False, False): (1.0, False, 0.0),
    (True, True): (0.125, True, -0.5),
    (True, False): (0.25, True, 0.0),
}


@lru_cache(maxsize=24)  # both frames at every size up to the 12-site cap
def _pair_table(n: int, dressed: bool) -> tuple:
    """The per-pair entries of an n-site cluster in one frame, built once:
    ``rows`` maps each pair (i, j), i < j, to its row k of ``diag_w`` (the
    Ising weights on the diagonal), ``flips`` (the flat indices of the
    entries (idx ^ mask_ij, idx) that flip both bits) and ``flip_w`` (their
    weights).  Site 0 is the top bit of idx, and s = 1/2 - bit."""
    dim = 2**n
    idx = np.arange(dim)
    bits = (idx >> np.arange(n - 1, -1, -1)[:, None]) & 1
    s = 0.5 - bits
    i, j = np.triu_indices(n, 1)
    ising, differ, agree = _FRAME_TERMS[dressed]
    diag_w = ising * (s[i] * s[j])
    flips = (idx ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))[:, None]) * dim + idx
    flip_w = np.where(bits[i] != bits[j], differ, agree)
    for table in (diag_w, flips, flip_w):
        table.flags.writeable = False
    return {pair: k for k, pair in enumerate(zip(i.tolist(), j.tolist()))}, diag_w, flips, flip_w


def _hamiltonian(n, frame, cmap, key) -> ClusterHamiltonian:
    """The pair terms of ``cmap``, in order, each scaled from its
    :func:`_pair_table` row, with equal ``key`` entries choosing the
    intra-group form: Ising parts summed on the diagonal, flip-flop parts
    added to their entries.  No two pairs share an off-diagonal entry."""
    if n < 1:
        raise ValueError("need at least one site")
    dressed = frame == Frame.DRESSED
    rows, diag_w, flips, flip_w = _pair_table(n, dressed)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    flat = h.reshape(-1)
    diag = np.zeros(dim)
    for (i, j), jij in cmap.items():
        k = rows[i, j]
        scale, flipflop, sxsx = _PAIR_TERMS[dressed, key[i] == key[j]]
        c = jij * scale
        diag += c * diag_w[k]
        if flipflop:
            flat[flips[k]] += c * flip_w[k]
            if sxsx:
                flat[flips[k]] += (jij * sxsx) * 0.25
    flat[:: dim + 1] = diag
    return ClusterHamiltonian(h, n)


def build_cluster_hamiltonian(net: SpinNetwork, frame: Frame) -> ClusterHamiltonian:
    """Full cluster Hamiltonian with per-pair classification.

    Pairs with equal :attr:`~spinnet.network.SpinNetwork.group_key` take the
    intra-group form, all others the inter-group form, in the requested
    frame.  Couplings are the NV-scaled dipolar couplings along the spec's
    field axis (:func:`_coupling_map`).
    """
    return _hamiltonian(net.n_sites, frame, _coupling_map(net), net.group_key.tolist())


def effective_rabi(omega_mhz: float, detuning_mhz: float) -> float:
    """Generalized Rabi frequency sqrt(Omega^2 + delta^2), MHz."""
    return math.hypot(omega_mhz, detuning_mhz)


def effective_disorder(w_mhz: float, omega_mhz: float) -> float:
    """Second-order dressed-frame disorder W^2 / (2 Omega), MHz."""
    if omega_mhz <= 0:
        raise ValueError("drive amplitude must be positive")
    return w_mhz**2 / (2.0 * omega_mhz)
