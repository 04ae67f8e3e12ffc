"""Disordered spin-ensemble generation.

Networks are cubic boxes of point defects (NV and P1 centers) at given
densities, with an optional hard-core exclusion radius and quenched
Gaussian detunings.  Every generated site is in the addressed group,
group 0: Hartmann-Hahn transfer couples the NVs to one P1 spectral
group.  Construction is deterministic: every realization derives its
own RNG stream from (master seed, realization index), so realizations
are independent and can be generated in any order.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum

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
    group: int = 0
    detuning_mhz: float = 0.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one disordered ensemble of the addressed group.

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


def species_code(species) -> int:
    return SPECIES.index(Species(species))


@dataclass
class SpinNetwork:
    """A network as array columns, one row per site.

    ``positions`` (n, 3) in nm, ``species`` as codes into :data:`SPECIES`,
    ``group`` (0, the addressed group, on every generated site) and
    ``detunings`` in MHz; networks built by hand may span several groups
    (:attr:`group_key`).  The constructor copies every column, so networks
    never share arrays, and refuses a species code outside :data:`SPECIES`
    and a ``realization`` that is not an integer.
    """

    spec: EnsembleSpec
    positions: np.ndarray
    species: np.ndarray
    group: np.ndarray
    detunings: np.ndarray
    realization: int = 0

    def __post_init__(self):
        self.realization = operator.index(self.realization)
        self.positions = np.array(self.positions, dtype=float).reshape(-1, 3)
        n = len(self.positions)
        species = np.asarray(self.species)
        if species.size and not 0 <= species.min() <= species.max() < len(SPECIES):
            raise ValueError(f"species codes must index SPECIES (0 to {len(SPECIES) - 1})")
        self.species = species.astype(np.int8)
        self.group = np.array(self.group, dtype=np.intp)
        self.detunings = np.array(self.detunings, dtype=float)
        for name in ("species", "group", "detunings"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} must have one entry per site ({n})")

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    @property
    def group_key(self) -> np.ndarray:
        """One integer per site, equal for two sites exactly when they share
        species and group: the pair is then degenerate (matching transition
        frequencies) and keeps its flip-flop terms."""
        return self.group * len(SPECIES) + self.species

    @property
    def sites(self) -> list:
        """Every site as a per-site record, built from the columns on each access."""
        columns = zip(self.positions, self.species, self.group, self.detunings)
        return [SpinSite(i, pos.copy(), SPECIES[c], int(g), float(d)) for i, (pos, c, g, d) in enumerate(columns)]

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

    The NV is site 0.  Every site carries group 0 (the addressed group)
    and a zero detuning, and the network keeps the spec of the draws.
    Draw k is ``generate(spec, realization=realization + 1000 * k)``;
    after 100 draws :class:`GenerationError` is raised.
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
        species = np.concatenate(([species_code(Species.NV)], base.species))
        return SpinNetwork(spec, positions, species, np.zeros(n, dtype=np.intp), np.zeros(n), realization)
    raise GenerationError("could not place the source away from the bath in 100 attempts")


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
    """The positions of one network under construction, its generator and
    its draw budget.

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
        self.p1 = self.species == species_code(Species.P1)
        self.positions = np.zeros((total, 3))

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
        """Site k's orientation draws, whose values are discarded: for P1
        an ``integers(0, 4)`` call, then one 64-bit output."""
        if self.p1[k]:
            self.rng.integers(0, 4)
        self.rng.random()

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

        Those are kept.  A site's slots are three positions, then its
        discarded orientation draws (:meth:`_orient`): one output for an
        NV; for a P1 one output more when its ``integers(0, 4)`` call
        finds the 32-bit buffer empty.  The first violating site, if any,
        counts as one refused attempt, and the generator is left just
        after its three position outputs, so that the next block starts
        with its redraw; either way the buffer is as the kept sites'
        ``integers`` calls left it.
        """
        bg = self.rng.bit_generator
        saved = bg.state
        buffered, half = saved["has_uint32"], saved["uinteger"]
        p1 = self.p1[k : k + m]
        # the i-th integers call of the block draws a new output when the
        # buffer is empty: i even with an empty buffer at the start, odd with a full one
        fresh = p1 & ((np.cumsum(p1) + buffered) % 2 == 1)
        slots = 4 + fresh  # positions, the output every site takes, a P1's fresh integers output
        end = np.cumsum(slots)
        start = end - slots
        raw = bg.random_raw(int(end[-1]))
        self.positions[k : k + m] = self.spec.box_nm * _unit_doubles(raw[start[:, None] + np.arange(3)])

        first = self._first_violation(k, m) if self.r2 > 0 else m
        self.attempts += first
        drawn = np.flatnonzero(fresh[:first])
        if drawn.size:
            # the upper half of the kept sites' last fresh output waits in the buffer
            half = int(raw[start[drawn[-1]] + 3] >> 32)
        buffered = (buffered + int(p1[:first].sum())) % 2
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
    """Build one network realization, every site in the addressed group.

    Site counts are round(density * volume) per species, NV first.  Each
    site takes, in stream order, its position draws (redrawn while they
    violate the exclusion radius against an already-placed site) and
    then orientation draws whose values are discarded: one 64-bit output
    for an NV, the one ``rng.choice(4, p=weights)`` reads; for a P1 one
    ``integers(0, 4)`` call, then one output.  Every site gets group 0.
    The total redraw budget is 100x the site count, and exhausting it
    raises :class:`GenerationError` naming the budget.

    Continuum sites are placed in blocks: the outputs of every remaining
    site are drawn at once with ``bit_generator.random_raw`` and the
    positions decoded as the per-site calls would read them; the sites
    before the first one that violates the exclusion radius are kept,
    the generator is rewound to just after that site's position draws,
    and the next block starts with its redraw.  This rests on numpy's
    PCG64 stream contract, which ``tests/test_network_reference.py``
    pins: ``uniform(0, L)`` is ``0.0 + L * ((u >> 11) * 2**-53)`` of one
    64-bit output u, ``random()`` takes one output, and consecutive
    ``integers(0, 4)`` calls share one output, lower half first, through
    the generator's ``has_uint32``/``uinteger`` buffer.  Lattice sites
    (clusters of a few sites) are drawn one at a time.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization]))
    counts = [spec.site_count(sp) for sp in SPECIES]
    placer = _Placer(spec, rng, counts)
    if spec.placement == Placement.DIAMOND_LATTICE:
        placer.place_lattice()
    else:
        placer.place_continuum()
    n = placer.total
    net = SpinNetwork(spec, placer.positions, placer.species, np.zeros(n, dtype=np.intp), np.zeros(n), realization)
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
