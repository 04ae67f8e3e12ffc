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
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .constants import J0_MHZ_NM3
from .network import Species, SpinNetwork, species_code

__all__ = [
    "Frame",
    "SpinOperatorSet",
    "ClusterHamiltonian",
    "dipolar_coupling",
    "nv_scaling",
    "build_cluster_hamiltonian",
    "effective_rabi",
    "effective_disorder",
]

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
    """Dense Hermitian cluster Hamiltonian in MHz with its frame tag."""

    matrix: np.ndarray
    frame: Frame
    n_sites: int
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2**self.n_sites, 2**self.n_sites):
            raise ValueError("matrix dimension must be 2^n_sites")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.conj().T).max() > 1e-12 * scale:
            raise ValueError("cluster Hamiltonian must be Hermitian")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def dipolar_coupling(r_vec, quant_axis) -> float:
    """Bare dipolar coupling J0 (1 - 3 cos^2 theta) / r^3, MHz.

    ``theta`` is the angle between the pair separation and the quantization
    axis set by the static field.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    r = float(np.linalg.norm(r_vec))
    if r == 0:
        raise ValueError("dipolar coupling diverges at zero separation")
    axis = np.asarray(quant_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    cos = float(np.dot(r_vec, axis)) / r
    return J0_MHZ_NM3 * (1.0 - 3.0 * cos**2) / r**3


def nv_scaling(j_mhz: float, n_nv_participants: int) -> float:
    """Scale a coupling by sqrt(2) per NV participant (0, 1 or 2)."""
    if n_nv_participants not in (0, 1, 2):
        raise ValueError("a pair coupling has 0, 1 or 2 NV participants")
    return j_mhz * math.sqrt(2.0) ** n_nv_participants


def _coupling_map(net: SpinNetwork, couplings):
    if couplings is not None:
        return {tuple(sorted(k)): float(v) for k, v in couplings.items()}
    pos = net.positions
    axis = net.spec.field_axis_unit
    nv = (net.species == species_code(Species.NV)).tolist()
    n = net.n_sites
    return {
        (i, j): nv_scaling(dipolar_coupling(pos[j] - pos[i], axis), nv[i] + nv[j])
        for i in range(n)
        for j in range(i + 1, n)
    }


# (dressed frame, degenerate pair) -> (c/J, diagonal weight on s_i s_j, flip
# weights where the bits differ and agree, -(J/2) Sx Sx weight added last),
# from c(S~+S~- + S~-S~+) = 2c(SySy + SzSz).  Powers of two added in the order
# of the operator forms keep entries bit-equal to operator products.
_PAIR_TERMS = {
    (False, True): (1.0, 1.0, -0.25, 0.0, 0.0),
    (False, False): (1.0, 1.0, 0.0, 0.0, 0.0),
    (True, True): (0.125, 2.0, 0.5, -0.5, -0.5),
    (True, False): (0.25, 2.0, 0.5, -0.5, 0.0),
}


def _hamiltonian(n, frame, cmap, degenerate) -> ClusterHamiltonian:
    """The pair terms of ``cmap``, in order, with ``degenerate(i, j)`` choosing
    the intra- or inter-group form: Ising parts go on the diagonal, flip-flop
    parts on the entries (idx ^ mask_ij, idx) that flip both bits."""
    if n < 1:
        raise ValueError("need at least one site")
    dim = 2**n
    idx = np.arange(dim)
    bits = (idx >> np.arange(n - 1, -1, -1)[:, None]) & 1
    s = 0.5 - bits
    h = np.zeros((dim, dim), dtype=complex)
    flat = h.reshape(-1)
    diag = flat[:: dim + 1]
    for i, j in cmap:
        jij = cmap[i, j]
        scale, ising, differ, agree, sxsx = _PAIR_TERMS[frame == Frame.DRESSED, degenerate(i, j)]
        c = jij * scale
        diag += c * (ising * (s[i] * s[j]))
        if differ or agree:
            flip = (idx ^ (1 << (n - 1 - i) | 1 << (n - 1 - j))) * dim + idx
            flat[flip] += c * np.where(bits[i] != bits[j], differ, agree)
            if sxsx:
                flat[flip] += (jij * sxsx) * 0.25
    return ClusterHamiltonian(h, frame, n, dict(cmap))


def build_cluster_hamiltonian(
    net: SpinNetwork,
    frame: Frame,
    couplings: Optional[Mapping] = None,
) -> ClusterHamiltonian:
    """Full cluster Hamiltonian with per-pair classification.

    Pairs with equal :attr:`~spinnet.network.SpinNetwork.group_key` take the
    intra-group form, all others the inter-group form, in the requested
    frame.  Couplings are the NV-scaled dipolar couplings along the spec's
    field axis unless ``couplings`` gives them per pair.
    """
    cmap = _coupling_map(net, couplings)
    key = net.group_key.tolist()
    return _hamiltonian(net.n_sites, frame, cmap, lambda i, j: key[i] == key[j])


def effective_rabi(omega_mhz: float, detuning_mhz: float) -> float:
    """Generalized Rabi frequency sqrt(Omega^2 + delta^2), MHz."""
    return math.hypot(omega_mhz, detuning_mhz)


def effective_disorder(w_mhz: float, omega_mhz: float) -> float:
    """Second-order dressed-frame disorder W^2 / (2 Omega), MHz."""
    if omega_mhz <= 0:
        raise ValueError("drive amplitude must be positive")
    return w_mhz**2 / (2.0 * omega_mhz)
