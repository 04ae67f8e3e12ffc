"""Array-column networks against a per-site reference.

``network_from_sites`` turns per-site records into array columns for the
tests that write a few sites by hand, and ``network_to_json`` /
``network_from_json`` write and read a network as JSON text, one record
per site.  ``reference_*`` below build the
same networks and rates one ``SpinSite`` record at a time: a placement loop that draws through ``Generator.choice``
and scans every placed site, ``dataclasses.replace`` per detuning, and a
rate builder that compares per-site key tuples.  Every column and every
rate matrix of the array code must equal them bit for bit.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spinnet import network
from spinnet.network import (
    NV_AXES,
    P1_SUBGROUP_WEIGHTS,
    SPECIES,
    EnsembleSpec,
    GenerationError,
    Placement,
    Species,
    SpinSite,
    generate_network,
    ppm_to_density,
)
from spinnet.constants import J0_MHZ_NM3
from spinnet.protocol import protocol_network
from spinnet.spinops import effective_rabi
from spinnet.transport import RATE_FLOOR_MHZ, build_rates, pair_table, transport_network


def network_from_sites(spec, sites, realization=0):
    """The array network of per-site records; every axis must be one of NV_AXES."""
    axes = np.array([s.axis for s in sites], dtype=float).reshape(-1, 3)
    axis_index = np.argmax(axes @ NV_AXES.T, axis=1)
    if not np.allclose(NV_AXES[axis_index], axes):
        raise ValueError("site axes must be <111> crystal axes")
    return network.SpinNetwork(
        spec,
        [s.position_nm for s in sites],
        [network.species_code(s.species) for s in sites],
        axis_index,
        [s.subgroup for s in sites],
        [s.detuning_mhz for s in sites],
        realization,
    )


def network_to_json(net):
    """The spec, the realization and one record per site, as JSON text."""
    spec = net.spec
    columns = (net.positions, net.species, net.axis_index, net.subgroup, net.detunings)
    payload = {
        "spec": {
            "box_nm": spec.box_nm,
            "densities_ppm": {Species(k).value: v for k, v in spec.densities_ppm.items()},
            "placement": spec.placement.value,
            "exclusion_nm": spec.exclusion_nm,
            "disorder_mhz": spec.disorder_mhz,
            "field_axis": list(spec.field_axis),
            "seed": spec.seed,
            "axis_weights": (
                {Species(k).value: list(v) for k, v in spec.axis_weights.items()}
                if spec.axis_weights
                else None
            ),
        },
        "realization": net.realization,
        "sites": [
            {
                "id": i,
                "xyz_nm": pos,
                "species": SPECIES[code].value,
                "subgroup": group,
                "axis": NV_AXES[axis].tolist(),
                "detuning_MHz": delta,
            }
            for i, (pos, code, axis, group, delta) in enumerate(zip(*(c.tolist() for c in columns)))
        ],
    }
    return json.dumps(payload)


def network_from_json(text):
    """The network of :func:`network_to_json` text; every site axis must be one of NV_AXES."""
    data = json.loads(text)
    sp = data["spec"]
    spec = EnsembleSpec(
        box_nm=sp["box_nm"],
        densities_ppm={Species(k): v for k, v in sp["densities_ppm"].items()},
        placement=Placement(sp["placement"]),
        exclusion_nm=sp["exclusion_nm"],
        disorder_mhz=sp["disorder_mhz"],
        field_axis=tuple(sp["field_axis"]),
        seed=sp["seed"],
        axis_weights=(
            {Species(k): tuple(v) for k, v in sp["axis_weights"].items()}
            if sp.get("axis_weights")
            else None
        ),
    )
    records = data["sites"]
    axes = np.array([rec["axis"] for rec in records], dtype=float).reshape(-1, 3)
    axis_index = np.argmax(axes @ NV_AXES.T, axis=1)
    if not np.allclose(NV_AXES[axis_index], axes):
        raise ValueError("site axes must be <111> crystal axes")
    return network.SpinNetwork(
        spec,
        [rec["xyz_nm"] for rec in records],
        [network.species_code(rec["species"]) for rec in records],
        axis_index,
        [rec["subgroup"] for rec in records],
        [rec["detuning_MHz"] for rec in records],
        data.get("realization", 0),
    )


def reference_generate_network(spec, realization=0):
    """The sites of the per-site placement loop, each one drawn with the
    generator's own calls and checked against every placed site."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, realization]))
    L = spec.box_nm
    counts = [(sp, spec.site_count(sp)) for sp in (Species.NV, Species.P1)]
    total = sum(c for _, c in counts)
    budget = 100 * max(total, 1)
    placed = np.zeros((total, 3))
    n_placed = 0
    lattice = network._LatticeSampler(L) if spec.placement == Placement.DIAMOND_LATTICE else None

    sites = []
    attempts = 0
    for species, count in counts:
        weights = None
        if spec.axis_weights:
            w = spec.axis_weights.get(species, spec.axis_weights.get(species.value))
            if w is not None:
                w = np.asarray(w, dtype=float)
                weights = w / w.sum()
        for _ in range(count):
            while True:
                attempts += 1
                if attempts > budget:
                    raise GenerationError("budget")
                pos = lattice.draw(rng) if lattice else rng.uniform(0.0, L, size=3)
                if pos is None:
                    continue
                if n_placed and spec.exclusion_nm > 0:
                    d2 = np.sum((placed[:n_placed] - pos) ** 2, axis=1)
                    if d2.min() < spec.exclusion_nm**2:
                        continue
                break
            placed[n_placed] = pos
            n_placed += 1
            axis_idx = int(rng.choice(4, p=weights))
            if species == Species.P1:
                subgroup = int(rng.choice(5, p=P1_SUBGROUP_WEIGHTS))
            else:
                subgroup = axis_idx
            sites.append(SpinSite(len(sites), pos.copy(), species, NV_AXES[axis_idx].copy(), subgroup))
    if spec.disorder_mhz > 0:
        sites = reference_assign_detunings(sites, spec.disorder_mhz, rng)
    return sites


def reference_assign_detunings(sites, sigma_mhz, rng):
    deltas = rng.normal(0.0, sigma_mhz, size=len(sites))
    return [replace(s, detuning_mhz=float(d)) for s, d in zip(sites, deltas)]


def reference_transport_sites(density_ppm, n_p1, w_mhz, seed, realization, exclusion_nm=1.0):
    box = (n_p1 / ppm_to_density(density_ppm)) ** (1.0 / 3.0)
    spec = EnsembleSpec(box_nm=box, densities_ppm={Species.P1: density_ppm}, exclusion_nm=exclusion_nm, seed=seed)
    center = np.full(3, box / 2)
    for attempt in range(100):
        base = reference_generate_network(spec, realization + 1000 * attempt)
        pos = np.array([s.position_nm for s in base]).reshape(-1, 3)
        if len(pos) and np.min(np.linalg.norm(pos - center, axis=1)) < exclusion_nm:
            continue
        sites = [SpinSite(0, center.copy(), Species.NV, NV_AXES[0].copy(), subgroup=0)]
        sites += [SpinSite(k + 1, s.position_nm, Species.P1, NV_AXES[0].copy(), subgroup=0) for k, s in enumerate(base)]
        if w_mhz > 0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, realization, 1]))
            sites = reference_assign_detunings(sites, w_mhz, rng)
        return spec, sites
    raise GenerationError("source")


def reference_protocol_sites(n_p1, seed, realization):
    box = (n_p1 / ppm_to_density(1.575)) ** (1.0 / 3.0)
    spec = EnsembleSpec(
        box_nm=box,
        densities_ppm={Species.NV: 0.6, Species.P1: 1.575},
        disorder_mhz=1.36,
        seed=seed,
        axis_weights={Species.NV: (1.0, 0.0, 0.0, 0.0)},
    )
    sites = reference_generate_network(spec, realization)
    for s in sites:
        s.subgroup = 0
        if s.species == Species.P1:
            s.axis = NV_AXES[0].copy()
    return spec, sites


def tilt_projection(omega_mhz, detuning_mhz):
    """sin(theta) = Omega / Omega_eff, the transverse projection of a
    detuned dressed spin (1 on resonance, 0 at zero drive)."""
    eff = effective_rabi(omega_mhz, detuning_mhz)
    if eff == 0:
        raise ValueError("tilt undefined with zero drive and zero detuning")
    return omega_mhz / eff


def reference_build_rates(spec, sites, omega_mhz, gamma_mhz=0.15):
    n = len(sites)
    pos = np.array([s.position_nm for s in sites])
    axis = spec.field_axis_unit
    delta = np.array([s.detuning_mhz for s in sites])
    cutoff = (2.0 * J0_MHZ_NM3**2 / (gamma_mhz * RATE_FLOOR_MHZ)) ** (1.0 / 6.0)
    rvec = pos[None, :, :] - pos[:, None, :]
    r = np.linalg.norm(rvec, axis=-1)
    np.fill_diagonal(r, np.inf)
    cos = np.divide(rvec @ axis, r, out=np.zeros((n, n)), where=np.isfinite(r))
    j_bare = J0_MHZ_NM3 * (1.0 - 3.0 * cos**2) / r**3
    is_nv = np.array([s.species == Species.NV for s in sites])
    scale = np.sqrt(2.0) ** (is_nv[:, None].astype(int) + is_nv[None, :].astype(int))
    keys = [(s.species, s.subgroup, int(np.argmax(NV_AXES @ s.axis))) for s in sites]
    same = np.array([[ki == kj for kj in keys] for ki in keys])
    prefactor = np.where(same, 1.0 / 8.0, 1.0 / 4.0)
    sin_t = np.array([tilt_projection(omega_mhz, d) for d in delta])
    j_eff = prefactor * scale * j_bare * (sin_t[:, None] * sin_t[None, :])
    om_eff = np.array([effective_rabi(omega_mhz, d) for d in delta])
    d_eff = om_eff[:, None] - om_eff[None, :]
    rates = 2.0 * j_eff**2 * gamma_mhz / (gamma_mhz**2 + d_eff**2)
    rates[r > cutoff] = 0.0
    np.fill_diagonal(rates, 0.0)
    return rates


def assert_columns_equal(net, sites):
    assert net.n_sites == len(sites)
    assert np.array_equal(net.positions, np.array([s.position_nm for s in sites]).reshape(-1, 3))
    assert [SPECIES[c] for c in net.species] == [s.species for s in sites]
    assert np.array_equal(NV_AXES[net.axis_index], np.array([s.axis for s in sites]).reshape(-1, 3))
    assert np.array_equal(net.subgroup, [s.subgroup for s in sites])
    assert np.array_equal(net.detunings, [s.detuning_mhz for s in sites])


def assert_rates_equal(net, sites, omega_mhz=6.40):
    if len(sites) >= 2:
        got = build_rates(pair_table(net), omega_mhz).rates
        assert np.array_equal(got, reference_build_rates(net.spec, sites, omega_mhz))
        assert np.count_nonzero(got) > 0


ENSEMBLES = [
    # (box_nm, densities_ppm, placement, exclusion_nm, disorder_mhz, axis_weights, seeds)
    (60.0, {Species.P1: 1.575}, Placement.CONTINUUM, 1.0, 0.0, None, (0, 1, 2)),
    (60.0, {Species.NV: 0.6, Species.P1: 1.575}, Placement.CONTINUUM, 1.0, 1.36, None, (3, 4, 5)),
    (40.0, {Species.NV: 2.0, Species.P1: 4.0}, Placement.CONTINUUM, 0.0, 0.5, None, (6, 7)),
    (30.0, {Species.P1: 20.0}, Placement.CONTINUUM, 2.5, 0.0, None, (8, 9)),
    (12.0, {Species.P1: 50.0}, Placement.DIAMOND_LATTICE, 0.5, 0.0, None, (10, 11, 12)),
    (15.0, {Species.NV: 20.0, Species.P1: 30.0}, Placement.DIAMOND_LATTICE, 0.0, 1.36, None, (13, 14)),
    (50.0, {Species.NV: 2.0}, Placement.CONTINUUM, 1.0, 0.0, {Species.NV: (1, 0, 0, 0)}, (15, 16)),
    (50.0, {Species.NV: 1.0, Species.P1: 2.0}, Placement.CONTINUUM, 1.0, 1.36,
     {Species.NV: (0.1, 0.2, 0.3, 0.4), "P1": (0, 1, 0, 3)}, (17, 18)),
]


@pytest.mark.parametrize(
    "ensemble,seed",
    [(e, seed) for e in ENSEMBLES for seed in e[-1]],
)
def test_generate_network_matches_per_site_reference(ensemble, seed):
    box, densities, placement, exclusion, disorder, weights, _ = ensemble
    spec = EnsembleSpec(
        box_nm=box,
        densities_ppm=densities,
        placement=placement,
        exclusion_nm=exclusion,
        disorder_mhz=disorder,
        seed=seed,
        axis_weights=weights,
    )
    for realization in (0, 3):
        net = generate_network(spec, realization=realization)
        sites = reference_generate_network(spec, realization)
        assert_columns_equal(net, sites)
        assert_rates_equal(net, sites)


@pytest.mark.parametrize("seed,realization,n_p1", [(0, 0, 120), (0, 7, 120), (3, 1, 60), (5, 2, 20), (11, 4, 120)])
def test_protocol_network_matches_per_site_reference(seed, realization, n_p1):
    net = protocol_network(n_p1=n_p1, seed=seed, realization=realization)
    spec, sites = reference_protocol_sites(n_p1, seed, realization)
    assert net.spec == spec
    assert_columns_equal(net, sites)
    assert_rates_equal(net, sites, omega_mhz=2.0)


@pytest.mark.parametrize(
    "n_p1,w_mhz,seed,realization",
    [(1, 0.0, 1, 0), (1, 1.36, 2, 5), (9, 1.36, 3, 1), (49, 0.0, 4, 2), (100, 1.36, 5, 0),
     (200, 1.36, 6, 19), (400, 1.36, 7, 3), (800, 1.36, 8, 0)],
)
def test_transport_network_matches_per_site_reference(n_p1, w_mhz, seed, realization):
    net = transport_network(1.575, n_p1, w_mhz=w_mhz, seed=seed, realization=realization)
    spec, sites = reference_transport_sites(1.575, n_p1, w_mhz, seed, realization)
    assert net.spec == spec
    assert_columns_equal(net, sites)
    assert_rates_equal(net, sites)


@pytest.fixture
def streams(monkeypatch):
    """Every generator ``np.random.default_rng`` makes while the test runs, in order."""
    made = []
    make = np.random.default_rng

    def recording(seed=None):
        made.append(make(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def sweep_cases():
    """(spec, realization) cases for the block placement: 210 networks."""
    p1, nv = Species.P1, Species.NV
    cases = []
    # the protocol spec: weighted NV axes (random()), uniform P1 axes and subgroups
    for n_p1 in (20, 60, 120, 240):
        box = (n_p1 / ppm_to_density(1.575)) ** (1.0 / 3.0)
        spec = dict(box_nm=box, densities_ppm={nv: 0.6, p1: 1.575}, disorder_mhz=1.36, axis_weights={nv: (1, 0, 0, 0)})
        cases += [(EnsembleSpec(seed=seed, **spec), r) for seed in range(6) for r in (0, 7)]
    # transport boxes: uniform axes only, so every other integers call reads the buffer
    for n_p1 in (1, 2, 3, 4, 5, 7, 10, 15, 25, 40, 65, 100, 160, 250, 400, 800):
        box = (n_p1 / ppm_to_density(1.575)) ** (1.0 / 3.0)
        cases += [(EnsembleSpec(box_nm=box, densities_ppm={p1: 1.575}, seed=seed), seed % 3) for seed in range(4)]
    # 23 NV with uniform axes: a full buffer crosses from the NV into the P1
    cases += [(EnsembleSpec(box_nm=60.0, densities_ppm={nv: 0.6, p1: 1.575}, seed=s), r) for s in range(10) for r in (0, 1)]
    # rejection heavy: ~11 redraws per network, so most replay mid-block
    cases += [(EnsembleSpec(box_nm=30.0, densities_ppm={p1: 20.0}, exclusion_nm=2.5, seed=s), s) for s in range(30)]
    cases += [
        (EnsembleSpec(box_nm=40.0, densities_ppm={nv: 2.0, p1: 4.0}, exclusion_nm=0.0, disorder_mhz=0.5, seed=s), 0)
        for s in range(20)
    ]
    # a species with zero sites, given as 0 ppm, rounded to 0 or absent
    for densities in ({nv: 0.0, p1: 2.0}, {nv: 1e-4, p1: 2.0}, {nv: 2.0}, {p1: 0.0}):
        cases += [(EnsembleSpec(box_nm=50.0, densities_ppm=densities, seed=s), 0) for s in range(4)]
    # weighted P1 axes behind uniform NV axes, and both weighted
    for weights in ({p1: (1, 2, 3, 4)}, {nv: (0.1, 0.2, 0.3, 0.4), p1: (0, 1, 0, 3)}):
        spec = dict(box_nm=50.0, densities_ppm={nv: 1.0, p1: 2.0}, axis_weights=weights)
        cases += [(EnsembleSpec(seed=s, **spec), s) for s in range(6)]
    return cases


def test_block_placement_matches_the_per_site_loop(streams):
    # every column, and the generator's final state after the detunings,
    # equal those of the loop that draws one site at a time
    cases = sweep_cases()
    assert len(cases) >= 200
    for spec, realization in cases:
        net = generate_network(spec, realization=realization)
        state = streams[-1].bit_generator.state
        sites = reference_generate_network(spec, realization)
        assert streams[-1].bit_generator.state == state, (spec, realization)
        assert_columns_equal(net, sites)


def test_budget_exhaustion_at_the_same_draw(streams):
    # both loops give up on the same attempt of an infeasible exclusion radius
    spec = EnsembleSpec(box_nm=30.0, densities_ppm={Species.P1: 8.8}, exclusion_nm=25.0, seed=0)
    with pytest.raises(GenerationError, match="budget"):
        generate_network(spec)
    state = streams[-1].bit_generator.state
    with pytest.raises(GenerationError, match="budget"):
        reference_generate_network(spec)
    assert streams[-1].bit_generator.state == state


def test_decoded_stream_is_the_generator_calls():
    # the PCG64 stream contract of generate_network's block placement: if a
    # numpy release draws these differently, this test names the change
    fresh = lambda seed: np.random.default_rng(np.random.SeedSequence([seed, 3]))
    for seed in range(4):
        box = 47.25 + seed
        a, b = fresh(seed), fresh(seed)
        raw = b.bit_generator.random_raw(3)
        assert np.array_equal(a.uniform(0.0, box, size=3), box * network._unit_doubles(raw))
        assert a.random() == network._unit_doubles(b.bit_generator.random_raw(1))[0]
        a, b = fresh(seed), fresh(seed)
        halves = [half for u in b.bit_generator.random_raw(3).tolist() for half in (u & 0xFFFFFFFF, u >> 32)]
        assert [a.integers(0, 4) for _ in range(5)] == [half >> 30 for half in halves[:5]]
        state = a.bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (1, halves[5])
        assert state["state"] == b.bit_generator.state["state"]


def test_sites_and_json_round_trip():
    spec = EnsembleSpec(box_nm=40.0, densities_ppm={Species.NV: 0.6, Species.P1: 1.575}, disorder_mhz=1.36, seed=2)
    net = generate_network(spec)
    sites = net.sites
    assert len(sites) == net.n_sites
    for i, site in enumerate(sites):
        assert site.id == i
        assert np.array_equal(site.position_nm, net.positions[i])
        assert site.species == SPECIES[net.species[i]]
        assert np.array_equal(site.axis, NV_AXES[net.axis_index[i]])
        assert site.detuning_mhz == net.detunings[i]
    back = network_from_sites(spec, sites, realization=net.realization)
    assert network_to_json(back) == network_to_json(net)
    with pytest.raises(ValueError, match="axes"):
        network_from_sites(spec, [replace(sites[0], axis=np.array([0.0, 0.0, 1.0]))])
    payload = json.loads(network_to_json(net))
    payload["sites"][0]["axis"] = [0.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="axes"):
        network_from_json(json.dumps(payload))
    with pytest.raises(ValueError, match="one entry per site"):
        network.SpinNetwork(spec, net.positions, net.species[:-1], net.axis_index, net.subgroup, net.detunings)


def test_columns_are_not_shared():
    spec = EnsembleSpec(box_nm=40.0, densities_ppm={Species.P1: 1.575}, seed=2)
    net = generate_network(spec)
    moved = network.assign_detunings(net, 1.0)
    moved.positions[0, 0] = math.nan
    moved.subgroup[:] = 9
    assert not np.isnan(net.positions).any()
    assert not np.any(net.subgroup == 9)
