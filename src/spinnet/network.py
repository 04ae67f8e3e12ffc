"""Disordered spin-ensemble generation.

Networks are cubic boxes of point defects (NV and P1 centers) at given
densities, with per-site symmetry axes, an optional hard-core exclusion
radius, and quenched Gaussian detunings.  Construction is deterministic:
every realization derives its own RNG stream from (master seed, realization
index), so realizations are independent and can be generated in any order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .constants import A_DIAMOND_NM, PPM_TO_PER_NM3

__all__ = [
    "Species",
    "Placement",
    "SpinSite",
    "EnsembleSpec",
    "SpinNetwork",
    "SPECIES",
    "species_code",
    "centred_source",
    "centred_draw",
    "GenerationError",
    "EXCLUSION_NM",
    "NV_AXES",
    "P1_SUBGROUP_WEIGHTS",
    "ppm_to_density",
    "mean_spacing",
    "generate_network",
    "assign_detunings",
]


class Species(str, Enum):
    NV = "NV"
    P1 = "P1"


class Placement(str, Enum):
    CONTINUUM = "continuum"
    DIAMOND_LATTICE = "diamond_lattice"


# The four <111> crystal axes, unit-normalized.
NV_AXES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3)

# Spectral subgroup populations of the P1 center (Jahn-Teller axis choice
# combined with the 14N hyperfine state): five groups weighted 1:3:4:3:1.
P1_SUBGROUP_WEIGHTS = np.array([1, 3, 4, 3, 1], dtype=float) / 12.0

# Conventional diamond cell: fcc sites plus the (1/4,1/4,1/4) sublattice.
_DIAMOND_BASIS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
        [0.25, 0.25, 0.25],
        [0.25, 0.75, 0.75],
        [0.75, 0.25, 0.75],
        [0.75, 0.75, 0.25],
    ]
)


class GenerationError(RuntimeError):
    """Raised when a network cannot satisfy its constraints within budget."""


# The hard-core exclusion radius, nm, of every network and cluster the
# runners build.
EXCLUSION_NM = 1.0


def ppm_to_density(concentration_ppm: float) -> float:
    """Defect concentration in ppm to number density in nm^-3."""
    if concentration_ppm < 0:
        raise ValueError(f"concentration must be nonnegative, got {concentration_ppm}")
    return concentration_ppm * PPM_TO_PER_NM3


def mean_spacing(concentration_ppm: float) -> float:
    """Mean inter-defect spacing d_avg = n^(-1/3), nm."""
    n = ppm_to_density(concentration_ppm)
    if n == 0:
        raise ValueError("mean spacing undefined at zero density")
    return n ** (-1.0 / 3.0)


@dataclass
class SpinSite:
    """One spin as a per-site record (see :attr:`SpinNetwork.sites`)."""

    id: int
    position_nm: np.ndarray
    species: Species
    axis: np.ndarray
    subgroup: int = 0
    detuning_mhz: float = 0.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one disordered ensemble.

    ``axis_weights`` optionally pins the axis distribution per species (four
    nonnegative weights over the <111> orientations); the default is uniform.
    ``disorder_mhz`` is the quenched detuning standard deviation applied at
    generation time.
    """

    box_nm: float
    densities_ppm: dict
    placement: Placement = Placement.CONTINUUM
    exclusion_nm: float = EXCLUSION_NM
    disorder_mhz: float = 0.0
    field_axis: tuple = (1.0, 1.0, 1.0)
    seed: int = 0
    axis_weights: Optional[dict] = None

    def __post_init__(self):
        if self.box_nm <= 0:
            raise ValueError(f"box length must be positive, got {self.box_nm}")
        if self.exclusion_nm < 0:
            raise ValueError("exclusion radius must be nonnegative")
        if self.disorder_mhz < 0:
            raise ValueError("disorder sigma must be nonnegative")
        norm = {}
        for sp, ppm in self.densities_ppm.items():
            if ppm < 0:
                raise ValueError(f"density for {Species(sp).value} must be nonnegative")
            norm[Species(sp)] = float(ppm)
        object.__setattr__(self, "densities_ppm", norm)
        ax = np.asarray(self.field_axis, dtype=float)
        if ax.shape != (3,) or np.linalg.norm(ax) == 0:
            raise ValueError("field_axis must be a nonzero 3-vector")

    @property
    def field_axis_unit(self) -> np.ndarray:
        ax = np.asarray(self.field_axis, dtype=float)
        return ax / np.linalg.norm(ax)

    def site_count(self, species) -> int:
        ppm = self.densities_ppm.get(Species(species), 0.0)
        return int(round(ppm_to_density(ppm) * self.box_nm**3))


# Species codes of the ``SpinNetwork.species`` column: the code is the index.
SPECIES = (Species.NV, Species.P1)
_SPECIES_CODE = {sp: code for code, sp in enumerate(SPECIES)}


def species_code(species) -> int:
    return _SPECIES_CODE[Species(species)]


@dataclass
class SpinNetwork:
    """A network as array columns, one row per site.

    ``positions`` (n, 3) in nm, ``species`` as codes into :data:`SPECIES`,
    ``axis_index`` into :data:`NV_AXES`, ``subgroup`` and ``detunings`` in
    MHz.  The constructor copies every column, so networks never share
    arrays.
    """

    spec: EnsembleSpec
    positions: np.ndarray
    species: np.ndarray
    axis_index: np.ndarray
    subgroup: np.ndarray
    detunings: np.ndarray
    realization: int = 0

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float).reshape(-1, 3)
        n = len(self.positions)
        self.species = np.array(self.species, dtype=np.int8)
        self.axis_index = np.array(self.axis_index, dtype=np.intp)
        self.subgroup = np.array(self.subgroup, dtype=np.intp)
        self.detunings = np.array(self.detunings, dtype=float)
        for name in ("species", "axis_index", "subgroup", "detunings"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} must have one entry per site ({n})")

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    @property
    def group_key(self) -> np.ndarray:
        """One integer per site, equal for two sites exactly when they share
        species, subgroup and axis: the pair is then degenerate (matching
        transition frequencies) and keeps its flip-flop terms."""
        return (self.subgroup * 4 + self.axis_index) * len(SPECIES) + self.species

    @property
    def sites(self) -> list:
        """Every site as a per-site record, built from the columns on each access."""
        columns = zip(self.positions, self.species, self.axis_index, self.subgroup, self.detunings)
        return [
            SpinSite(i, pos.copy(), SPECIES[code], NV_AXES[axis].copy(), int(group), float(delta))
            for i, (pos, code, axis, group, delta) in enumerate(columns)
        ]

    def indices_of(self, species) -> np.ndarray:
        return np.flatnonzero(self.species == species_code(species))

    def count(self, species) -> int:
        return int(self.indices_of(species).size)


def centred_source(base: SpinNetwork, realization: int) -> SpinNetwork:
    """One NV at the centre of ``base``'s box (site 0) plus ``base``'s sites as P1.

    Every site carries axis 0 and subgroup 0 (the addressed group) and a
    zero detuning; the result keeps ``base.spec``.
    """
    n = base.n_sites + 1
    positions = np.empty((n, 3))
    positions[0] = base.spec.box_nm / 2
    positions[1:] = base.positions
    species = np.full(n, species_code(Species.P1))
    species[0] = species_code(Species.NV)
    zeros = np.zeros(n, dtype=np.intp)
    return SpinNetwork(base.spec, positions, species, zeros, zeros, np.zeros(n), realization)


def centred_draw(spec: EnsembleSpec, realization: int, generate) -> SpinNetwork:
    """:func:`centred_source` of the first draw of ``spec`` that leaves the
    box centre clear: no site within :data:`EXCLUSION_NM` of it.

    Draw k is ``generate(spec, realization=realization + 1000 * k)``;
    after 100 draws :class:`GenerationError` is raised.  Callers pass
    :func:`generate_network` as their module sees it, so a wrapper put on
    that name (the benchmark tracer's) sees every draw.
    """
    center = np.full(3, spec.box_nm / 2)
    for attempt in range(100):
        base = generate(spec, realization=realization + 1000 * attempt)
        if base.n_sites and np.min(np.linalg.norm(base.positions - center, axis=1)) < EXCLUSION_NM:
            continue
        return centred_source(base, realization)
    raise GenerationError("could not place the source away from the bath in 100 attempts")


class _LatticeSampler:
    """Uniform sampling without replacement over diamond sites in the box.

    Cells are indexed rather than enumerated, so the box may contain ~1e8
    candidate sites without materializing them; a drawn (cell, basis) code is
    rejected if already used or if the site falls outside the box.
    """

    def __init__(self, L):
        self.L = L
        self.n_cells = max(1, math.ceil(L / A_DIAMOND_NM))
        self.used = set()

    def draw(self, rng):
        code = tuple(rng.integers(0, self.n_cells, size=3)) + (int(rng.integers(0, 8)),)
        if code in self.used:
            return None
        frac = np.array(code[:3], dtype=float) + _DIAMOND_BASIS[code[3]]
        pos = frac * A_DIAMOND_NM
        if np.any(pos >= self.L):
            return None
        self.used.add(code)
        return pos


class _ExclusionGrid:
    """Placed sites binned in cubes a little wider than the exclusion radius.

    Every placed site closer than the radius to a candidate lies in one
    of the 27 cubes around the candidate's own (the width margin covers
    the rounding of x / width), so a check costs O(1) instead of a scan
    of every placed site.  Squared distances are summed in the order
    ``np.sum((placed - pos) ** 2, axis=1)`` uses, ((dx^2 + dy^2) + dz^2).
    """

    def __init__(self, radius_nm: float, box_nm: float):
        self.r2 = radius_nm**2
        self.width = max(radius_nm * (1.0 + 1e-6), box_nm * 1e-8)
        # cube (i, j, k) has key ((i+1)*m + j+1)*m + k+1; m keeps the keys of
        # every cube in the box and of its neighbours distinct
        self.m = m = math.ceil(box_nm / self.width) + 3
        self.around = [(i * m + j) * m + k for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
        self.cells = {}

    def _key(self, x, y, z) -> int:
        w, m = self.width, self.m
        return ((math.floor(x / w) + 1) * m + math.floor(y / w) + 1) * m + math.floor(z / w) + 1

    def admits(self, pos: list) -> bool:
        x, y, z = pos
        key = self._key(x, y, z)
        for d in self.around:
            for px, py, pz in self.cells.get(key + d, ()):
                dx, dy, dz = px - x, py - y, pz - z
                if dx * dx + dy * dy + dz * dz < self.r2:
                    return False
        return True

    def add(self, pos: list) -> None:
        self.cells.setdefault(self._key(*pos), []).append(pos)


def _cdf(weights: np.ndarray) -> list:
    # the cumulative table Generator.choice(k, p=weights) searches
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


_P1_SUBGROUP_CDF = _cdf(P1_SUBGROUP_WEIGHTS)


def _axis_cdf(spec: EnsembleSpec, species: Species) -> Optional[list]:
    """Cumulative axis weights of a species, or None for the uniform default."""
    if not spec.axis_weights:
        return None
    w = spec.axis_weights.get(species, spec.axis_weights.get(species.value))
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.min() < 0 or w.sum() == 0:
        raise ValueError("axis weights must be nonnegative and not all zero")
    return _cdf(w / w.sum())


def generate_network(spec: EnsembleSpec, realization: int = 0) -> SpinNetwork:
    """Build one network realization.

    Site counts are round(density * volume) per species, NV first.  Each
    site takes, in stream order, its position draws (redrawn while they
    violate the exclusion radius against an already-placed site), one
    axis draw and, for P1, one subgroup draw.  The axis and subgroup
    draws are those ``rng.choice(k, p=weights)`` makes (one ``random()``
    searched in the cumulative weights; ``integers(0, 4)`` for uniform
    axes) without its per-call validation.  The total redraw budget is
    100x the site count, and exhausting it raises
    :class:`GenerationError` naming the budget.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization]))
    L = spec.box_nm
    counts = [spec.site_count(sp) for sp in SPECIES]
    total = sum(counts)
    budget = 100 * max(total, 1)
    grid = _ExclusionGrid(spec.exclusion_nm, L) if spec.exclusion_nm > 0 else None
    lattice = _LatticeSampler(L) if spec.placement == Placement.DIAMOND_LATTICE else None
    positions = np.zeros((total, 3))
    axis_index = np.zeros(total, dtype=np.intp)
    subgroup = np.zeros(total, dtype=np.intp)

    k = 0
    attempts = 0
    for species, count in zip(SPECIES, counts):
        cdf = _axis_cdf(spec, species)
        for _ in range(count):
            while True:
                attempts += 1
                if attempts > budget:
                    raise GenerationError(
                        f"could not satisfy exclusion radius {spec.exclusion_nm} nm "
                        f"within the retry budget of {budget} draws "
                        f"(100x the {total} requested sites)"
                    )
                pos = lattice.draw(rng) if lattice else rng.uniform(0.0, L, size=3)
                if pos is None:
                    continue
                pos = pos.tolist()
                if grid is None or grid.admits(pos):
                    break
            if grid is not None:
                grid.add(pos)
            positions[k] = pos
            axis = rng.integers(0, 4) if cdf is None else bisect_right(cdf, rng.random())
            axis_index[k] = axis
            subgroup[k] = bisect_right(_P1_SUBGROUP_CDF, rng.random()) if species == Species.P1 else axis
            k += 1

    species_col = np.repeat(np.arange(len(SPECIES)), counts)
    net = SpinNetwork(spec, positions, species_col, axis_index, subgroup, np.zeros(total), realization)
    if spec.disorder_mhz > 0:
        net = assign_detunings(net, spec.disorder_mhz, rng=rng)
    return net


def assign_detunings(net: SpinNetwork, sigma_mhz: float, rng=None) -> SpinNetwork:
    """Return a copy of ``net`` with fresh quenched Gaussian detunings.

    Detunings are drawn once and stay fixed for the network's lifetime.
    An already-running ``rng`` stream selects the draw; without one, the
    network's own (seed, realization) stream is extended deterministically.
    """
    if sigma_mhz < 0:
        raise ValueError("detuning sigma must be nonnegative")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([net.spec.seed, net.realization, 1]))
    n = net.n_sites
    deltas = rng.normal(0.0, sigma_mhz, size=n) if sigma_mhz > 0 else np.zeros(n)
    return replace(net, detunings=deltas)
