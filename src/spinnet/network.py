"""Disordered spin-ensemble generation.

Networks are cubic boxes of point defects (NV and P1 centers) at given
densities, with per-site symmetry axes, an optional hard-core exclusion
radius, and quenched Gaussian detunings.  Construction is deterministic:
every realization derives its own RNG stream from (master seed, realization
index), so realizations are independent and can be generated in any order.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .constants import A_DIAMOND_NM, EXCLUSION_NM, ppm_to_density

__all__ = [
    "Species",
    "Placement",
    "SpinSite",
    "EnsembleSpec",
    "SpinNetwork",
    "SPECIES",
    "species_code",
    "centred_box",
    "GenerationError",
    "EXCLUSION_NM",
    "NV_AXES",
    "P1_SUBGROUP_WEIGHTS",
    "ppm_to_density",
    "mean_spacing",
    "box_side",
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
_DIAMOND_BASIS = (
    (0.0, 0.0, 0.0),
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.5, 0.5, 0.0),
    (0.25, 0.25, 0.25),
    (0.25, 0.75, 0.75),
    (0.75, 0.25, 0.75),
    (0.75, 0.75, 0.25),
)


class GenerationError(RuntimeError):
    """Raised when a network cannot satisfy its constraints within budget."""


# The longest box edge, nm, whose volume is a finite float
_MAX_BOX_NM = sys.float_info.max ** (1.0 / 3.0)


def mean_spacing(concentration_ppm: float) -> float:
    """Mean inter-defect spacing d_avg = n^(-1/3), nm."""
    n = ppm_to_density(concentration_ppm)
    if n == 0:
        raise ValueError("mean spacing undefined at zero density")
    return n ** (-1.0 / 3.0)


def box_side(density_ppm: float, n_sites: int) -> float:
    """Side (n_sites / n)^(1/3), nm, of the cubic box that holds ``n_sites``
    at ``density_ppm``: the box of every transport, protocol and cluster
    network."""
    n = ppm_to_density(density_ppm)
    if n <= 0:
        raise ValueError("a box needs a positive density")
    return (n_sites / n) ** (1.0 / 3.0)


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
        if self.box_nm > _MAX_BOX_NM:
            raise GenerationError(f"a {self.box_nm:g} nm box has no finite volume")
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


def centred_box(
    density_ppm: float, n_bath: int, placement: Placement, seed: int, realization: int, generate
) -> SpinNetwork:
    """One NV at the centre of the box that holds ``n_bath`` P1 at
    ``density_ppm`` (:func:`box_side`), placed by ``placement``, plus the
    P1 of the first draw that leaves the centre clear (no site within
    :data:`EXCLUSION_NM` of it): the transport box and the DEER cluster.

    The NV is site 0.  Every site carries axis 0 and subgroup 0 (the
    addressed group) and a zero detuning, and the network keeps the spec
    of the draws.  Draw k is ``generate(spec, realization=realization +
    1000 * k)``; after 100 draws :class:`GenerationError` is raised.
    Callers pass :func:`generate_network` as their module sees it, so a
    wrapper put on that name (the benchmark tracer's) sees every draw.
    """
    spec = EnsembleSpec(
        box_nm=box_side(density_ppm, n_bath),
        densities_ppm={Species.P1: density_ppm},
        placement=placement,
        seed=seed,
    )
    center = np.full(3, spec.box_nm / 2)
    for attempt in range(100):
        base = generate(spec, realization=realization + 1000 * attempt)
        if base.n_sites and np.min(np.linalg.norm(base.positions - center, axis=1)) < EXCLUSION_NM:
            continue
        n = base.n_sites + 1
        positions = np.concatenate((center[None], base.positions))
        species = np.full(n, species_code(Species.P1))
        species[0] = species_code(Species.NV)
        zeros = np.zeros(n, dtype=np.intp)
        return SpinNetwork(spec, positions, species, zeros, zeros, np.zeros(n), realization)
    raise GenerationError("could not place the source away from the bath in 100 attempts")


def _cdf(weights: np.ndarray) -> list:
    # the cumulative table Generator.choice(k, p=weights) searches
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


_P1_SUBGROUP_CDF = _cdf(P1_SUBGROUP_WEIGHTS)


def _axis_cdf(spec: EnsembleSpec, species: Species) -> Optional[list]:
    """Cumulative axis weights of a species, or None for the uniform default."""
    if not spec.axis_weights:
        return None
    w = spec.axis_weights.get(species)
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.min() < 0 or w.sum() == 0:
        raise ValueError("axis weights must be nonnegative and not all zero")
    return _cdf(w / w.sum())


def _unit_doubles(raw: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each 64-bit PCG64 output: its top 53 bits times 2**-53."""
    return (raw >> 11) * 2.0**-53


def _clear_of(placed: list, x: float, y: float, z: float, r2: float) -> bool:
    """No point of ``placed`` lies closer to (x, y, z) than sqrt(r2), by
    ((dx^2 + dy^2) + dz^2) < r2, as :func:`_squared_lengths` sums it."""
    for px, py, pz in placed:
        dx, dy, dz = px - x, py - y, pz - z
        if dx * dx + dy * dy + dz * dz < r2:
            return False
    return True


def _lattice_coord(c: int, b: float, box_nm: float) -> float | None:
    """Coordinate (c + b) a of basis offset ``b`` in cell ``c`` along one
    axis, or None when it lies outside a box of side ``box_nm``."""
    x = (c + b) * A_DIAMOND_NM
    return x if x < box_nm else None


def _lattice_sites_in_box(box_nm: float) -> int:
    """Diamond sites (cell, basis site) that :meth:`_Placer.place_lattice`
    finds inside a box of side ``box_nm``, by its own :func:`_lattice_coord`."""
    n_cells = max(1, math.ceil(box_nm / A_DIAMOND_NM))

    def along(b):
        c = n_cells  # only the last cells can reach past the box
        while c and _lattice_coord(c - 1, b, box_nm) is None:
            c -= 1
        return c

    return sum(along(bx) * along(by) * along(bz) for bx, by, bz in _DIAMOND_BASIS)


def _squared_lengths(d: np.ndarray) -> np.ndarray:
    """Squared length of each row of ``d``, summed (dx^2 + dy^2) + dz^2; ``d`` is overwritten."""
    d *= d
    s = d[:, 0] + d[:, 1]
    s += d[:, 2]
    return s


class _Placer:
    """The columns of one network under construction, its generator and its
    draw budget.

    :meth:`place_lattice` draws lattice sites one at a time with the
    generator's own calls and Python float arithmetic; :meth:`place_block`
    draws a run of continuum sites from one raw draw, decoded as those
    calls would read it.  Both count every position draw against the
    budget and keep a site only if no earlier site lies closer than the
    exclusion radius, ((dx^2 + dy^2) + dz^2) < r^2.  Continuum sites are
    placed in blocks only, each ended by its first violating site, whose
    redraw is the next block's first site.
    """

    def __init__(self, spec: EnsembleSpec, rng: np.random.Generator, counts: list):
        self.spec, self.rng = spec, rng
        self.total = total = sum(counts)
        self.budget = 100 * max(total, 1)
        self.attempts = 0
        self.r2 = spec.exclusion_nm**2
        self.species = np.repeat(np.arange(len(SPECIES)), counts)
        self.cdfs = [_axis_cdf(spec, sp) for sp in SPECIES]
        self.uniform = np.array([cdf is None for cdf in self.cdfs])[self.species]
        self.p1 = self.species == species_code(Species.P1)
        self.positions = np.zeros((total, 3))
        self.axis_index = np.zeros(total, dtype=np.intp)
        self.subgroup = np.zeros(total, dtype=np.intp)

    def _count_attempt(self) -> None:
        self.attempts += 1
        if self.attempts > self.budget:
            budget = f"the retry budget of {self.budget} draws (100x the {self.total} requested sites)"
            if self.spec.placement is Placement.DIAMOND_LATTICE:
                sites = _lattice_sites_in_box(self.spec.box_nm)
                if sites < self.total:
                    raise GenerationError(
                        f"a {self.spec.box_nm:g} nm box holds only {sites} diamond lattice sites, "
                        f"fewer than the {self.total} requested; spent {budget}"
                    )
            raise GenerationError(f"could not satisfy exclusion radius {self.spec.exclusion_nm} nm within {budget}")

    def _orient(self, k: int) -> None:
        """Site k's axis draw and, for P1, its subgroup draw."""
        rng = self.rng
        cdf = self.cdfs[self.species[k]]
        axis = rng.integers(0, 4) if cdf is None else bisect_right(cdf, rng.random())
        self.axis_index[k] = axis
        self.subgroup[k] = bisect_right(_P1_SUBGROUP_CDF, rng.random()) if self.p1[k] else axis

    def place_lattice(self) -> None:
        """Diamond sites in the box, drawn without replacement in Python
        floats: a cell code (``integers(0, n_cells, size=3)`` then
        ``integers(0, 8)`` for the basis site) is refused when it was drawn
        before or its site lies outside the box; a code inside the box
        stays used even when the exclusion radius refuses its site.  Cells
        are indexed, never enumerated, so a box may hold ~1e8 candidates."""
        L, rng, r2 = self.spec.box_nm, self.rng, self.r2
        n_cells = max(1, math.ceil(L / A_DIAMOND_NM))
        if n_cells > np.iinfo(np.int64).max:
            raise GenerationError(f"a {L:g} nm box holds more diamond cells per edge than a 64-bit index counts")
        used, placed = set(), []
        for k in range(self.total):
            while True:
                self._count_attempt()
                cell = rng.integers(0, n_cells, size=3).tolist()
                code = (*cell, int(rng.integers(0, 8)))
                if code in used:
                    continue
                pos = [_lattice_coord(c, b, L) for c, b in zip(cell, _DIAMOND_BASIS[code[3]])]
                if None in pos:
                    continue
                x, y, z = pos
                used.add(code)
                if r2 > 0 and not _clear_of(placed, x, y, z, r2):
                    continue
                break
            placed.append((x, y, z))
            self.positions[k] = x, y, z
            self._orient(k)

    def place_continuum(self) -> None:
        k, m = 0, self.total
        while k < self.total:
            m = min(m, self.total - k, self.budget - self.attempts)
            if not m:
                self._count_attempt()  # the budget is spent: raises
            kept = self.place_block(k, m)
            k += kept
            # A block's size changes no draw.  After a block that kept no
            # site, the refused site is redrawn alone until it is kept: near
            # the packing limit a block per attempt would otherwise decode
            # every remaining site and build a tree over the whole box.
            m = self.total if kept else 1

    def place_block(self, k: int, m: int) -> int:
        """Continuum sites k .. k+m-1 from one ``random_raw`` draw; returns
        how many lead the block without a violation of the exclusion radius.

        Those are kept.  A site's slots are three positions, an axis output
        unless its ``integers(0, 4)`` call reads the buffered upper half of
        the previous call's output, and for P1 a subgroup output.  The
        first violating site, if any, counts as one refused attempt, and
        the generator is left just after its three position outputs, so
        that the next block starts with its redraw; either way the 32-bit
        buffer is as the kept sites' ``integers`` calls left it.
        """
        bg = self.rng.bit_generator
        saved = bg.state
        buffered, half = saved["has_uint32"], saved["uinteger"]
        block = slice(k, k + m)
        uniform = self.uniform[block]
        p1 = self.p1[block]
        # the i-th integers call of the block draws a new output when the
        # buffer is empty: i even with an empty buffer at the start, odd with a full one
        fresh = uniform & ((np.cumsum(uniform) + buffered) % 2 == 1)
        slots = 3 + (~uniform | fresh) + p1
        end = np.cumsum(slots)
        start = end - slots
        raw = bg.random_raw(int(end[-1]))

        self.positions[block] = self.spec.box_nm * _unit_doubles(raw[start[:, None] + np.arange(3)])
        axis = np.empty(m, dtype=np.intp)
        species = self.species[block]
        for code, cdf in enumerate(self.cdfs):
            if cdf is not None:
                sel = species == code
                axis[sel] = np.searchsorted(cdf, _unit_doubles(raw[start[sel] + 3]), side="right")
        calls = np.flatnonzero(uniform)
        if calls.size:
            own = start[calls] + 3
            # a call that finds the buffer full reads the upper half of the
            # output the call before it drew (or, first in the block, the state's)
            src = np.where(fresh[calls], own, np.concatenate(([-1], own[:-1])))
            out = raw[src]
            axis[calls] = np.where(fresh[calls], (out & 0xFFFFFFFF) >> 30, out >> 62)
            if src[0] < 0:
                axis[calls[0]] = half >> 30
        subgroup = axis.copy()
        subgroup[p1] = np.searchsorted(_P1_SUBGROUP_CDF, _unit_doubles(raw[end[p1] - 1]), side="right")

        first = self._first_violation(k, m) if self.r2 > 0 else m
        self.attempts += first
        self.axis_index[k : k + first] = axis[:first]
        self.subgroup[k : k + first] = subgroup[:first]

        drawn = np.flatnonzero(fresh[:first])
        if drawn.size:
            half = int(raw[start[drawn[-1]] + 3] >> 32)
        buffered = (buffered + int(uniform[:first].sum())) % 2
        if first < m:
            self._count_attempt()
            bg.state = saved
            bg.random_raw(int(start[first]) + 3)
        state = bg.state
        state["has_uint32"], state["uinteger"] = buffered, half
        bg.state = state
        return first

    def _first_violation(self, k: int, m: int) -> int:
        """Offset in block k .. k+m-1 of its first site closer than the
        exclusion radius to an earlier site, or m."""
        if m == 1:
            # one site: against every kept site, without building a tree
            return int(not (_squared_lengths(self.positions[:k] - self.positions[k]) < self.r2).any())
        # imported on first use, so that commands without geometry never load it
        from scipy.spatial import cKDTree

        pos = self.positions[: k + m]
        # the tree's radius is a relative 1e-9 wider, so that its rounding
        # cannot drop a pair the exact predicate below refuses
        i, j = cKDTree(pos).query_pairs(self.spec.exclusion_nm * (1.0 + 1e-9), output_type="ndarray").T
        late = j >= k  # pairs come as i < j; pairs of accepted sites were checked before
        i, j = i[late], j[late]
        close = _squared_lengths(pos[i] - pos[j]) < self.r2
        return int(j[close].min()) - k if close.any() else m


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

    Continuum sites are placed in blocks: the outputs of every remaining
    site are drawn at once with ``bit_generator.random_raw`` and decoded
    as the per-site calls would read them; the sites before the first
    one that violates the exclusion radius are kept, the generator is
    rewound to just after that site's position draws, and the next block
    starts with its redraw.  This rests on numpy's PCG64 stream contract, which
    ``tests/test_network_reference.py`` pins: ``uniform(0, L)`` is
    ``0.0 + L * ((u >> 11) * 2**-53)`` of one 64-bit output u, ``random()``
    is ``(u >> 11) * 2**-53``, and ``integers(0, 4)`` is the top two bits
    of a 32-bit half, consecutive calls sharing one output, lower half
    first, through the generator's ``has_uint32``/``uinteger`` buffer.
    Lattice sites (clusters of a few sites) are drawn one at a time.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization]))
    counts = [spec.site_count(sp) for sp in SPECIES]
    placer = _Placer(spec, rng, counts)
    if spec.placement == Placement.DIAMOND_LATTICE:
        placer.place_lattice()
    else:
        placer.place_continuum()
    net = SpinNetwork(
        spec, placer.positions, placer.species, placer.axis_index, placer.subgroup, np.zeros(placer.total), realization
    )
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
