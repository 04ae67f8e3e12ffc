import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from spinnet import network
from spinnet.network import (
    EnsembleSpec,
    GenerationError,
    Placement,
    Species,
    assign_detunings,
    centred_box,
    generate_network,
    mean_spacing,
    ppm_to_density,
)
from test_acceptance import empirical_nearest_neighbor, nearest_neighbor_stats
from test_network_reference import network_from_json, network_to_json


def min_pair_distance(net):
    return float(pdist(net.positions).min())


def test_ppm_conversion():
    assert ppm_to_density(1.0) == pytest.approx(1.76e-4)
    assert ppm_to_density(0.0) == 0.0
    assert mean_spacing(1.575) == pytest.approx(15.3, abs=0.1)
    with pytest.raises(ValueError):
        ppm_to_density(-0.1)


def test_site_count_follows_density():
    # round(n * L^3): 1.0 ppm in a 100 nm box -> 176 sites, 1.575 ppm -> 277
    spec1 = EnsembleSpec(box_nm=100.0, densities_ppm={Species.P1: 1.0}, seed=7)
    assert spec1.site_count(Species.P1) == 176
    spec2 = EnsembleSpec(box_nm=100.0, densities_ppm={Species.P1: 1.575}, seed=7)
    assert spec2.site_count(Species.P1) == round(1.575 * 1.76e-4 * 1e6)
    net = generate_network(spec2)
    assert len(net.positions) == spec2.site_count(Species.P1)
    assert min_pair_distance(net) >= 1.0


def test_zero_density_empty():
    spec = EnsembleSpec(box_nm=50.0, densities_ppm={Species.NV: 0.0})
    assert generate_network(spec).positions.shape == (0, 3)


def test_determinism_and_realization_independence():
    spec = EnsembleSpec(box_nm=60.0, densities_ppm={Species.NV: 0.6, Species.P1: 1.575}, seed=3)
    a = generate_network(spec, realization=2)
    b = generate_network(spec, realization=2)
    assert network_to_json(a) == network_to_json(b)
    c = generate_network(spec, realization=3)
    assert not np.array_equal(a.positions, c.positions)


def test_exclusion_radius_enforced():
    spec = EnsembleSpec(
        box_nm=30.0, densities_ppm={Species.P1: 20.0}, exclusion_nm=2.5, seed=1
    )
    net = generate_network(spec)
    assert min_pair_distance(net) >= 2.5


def test_generation_failure_names_budget():
    # ~42 sites cannot fit 25 nm apart in a 30 nm box
    spec = EnsembleSpec(
        box_nm=30.0, densities_ppm={Species.P1: 8.8}, exclusion_nm=25.0, seed=0
    )
    with pytest.raises(GenerationError, match="budget"):
        generate_network(spec)


def test_lattice_placement_sits_on_diamond_sites():
    spec = EnsembleSpec(
        box_nm=20.0,
        densities_ppm={Species.P1: 50.0},
        placement=Placement.DIAMOND_LATTICE,
        exclusion_nm=0.5,
        seed=5,
    )
    net = generate_network(spec)
    frac = net.positions / network.A_DIAMOND_NM
    # every coordinate is a multiple of a/4 on the diamond sublattices
    assert np.allclose(np.round(frac * 4) / 4, frac, atol=1e-9)
    assert min_pair_distance(net) >= 0.5


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(box_nm=120.0, densities_ppm={Species.NV: 2.0, Species.P1: 10.0}, seed=11),
        EnsembleSpec(
            box_nm=20.0, densities_ppm={Species.P1: 50.0}, placement=Placement.DIAMOND_LATTICE, exclusion_nm=0.5, seed=5
        ),
    ],
)
def test_every_generated_site_is_in_the_addressed_group(spec):
    net = generate_network(spec)
    assert net.count(Species.P1) > 0
    assert net.count(Species.NV) == spec.site_count(Species.NV)
    assert not net.axis_index.any()
    assert not net.subgroup.any()


def test_detunings_quenched_gaussian():
    spec = EnsembleSpec(box_nm=250.0, densities_ppm={Species.P1: 10.0}, seed=4)
    net = generate_network(spec)
    assert len(net.positions) >= 10_000
    with_d = assign_detunings(net, 1.36, rng=np.random.default_rng(42))
    assert np.std(with_d.detunings) == pytest.approx(1.36, rel=0.03)
    again = assign_detunings(net, 1.36, rng=np.random.default_rng(42))
    assert np.array_equal(with_d.detunings, again.detunings)
    zero = assign_detunings(net, 0.0)
    assert np.all(zero.detunings == 0)
    # generation-time disorder is part of the deterministic stream
    spec_w = EnsembleSpec(
        box_nm=60.0, densities_ppm={Species.P1: 2.0}, disorder_mhz=1.36, seed=9
    )
    n1 = generate_network(spec_w)
    n2 = generate_network(spec_w)
    assert np.array_equal(n1.detunings, n2.detunings)
    assert np.any(n1.detunings != 0)


def test_nearest_neighbor_closed_forms():
    stats = nearest_neighbor_stats(0.6, 12.4)
    assert stats.d_nn_nm == pytest.approx(11.7, abs=0.1)
    assert stats.fraction_within == pytest.approx(0.57, abs=0.01)
    assert nearest_neighbor_stats(0.6, 0.0).fraction_within == 0.0
    with pytest.raises(ValueError):
        nearest_neighbor_stats(0.0)


def test_empirical_nn_matches_poisson():
    spec = EnsembleSpec(box_nm=80.0, densities_ppm={Species.NV: 0.6}, exclusion_nm=0.0, seed=21)
    samples = []
    for r in range(120):
        net = generate_network(spec, realization=r)
        samples.extend(empirical_nearest_neighbor(net, margin_nm=15.0))
    d_nn = float(np.mean(samples))
    assert d_nn == pytest.approx(nearest_neighbor_stats(0.6).d_nn_nm, rel=0.05)


def test_json_round_trip_lossless():
    spec = EnsembleSpec(
        box_nm=40.0,
        densities_ppm={Species.NV: 0.6, Species.P1: 1.575},
        disorder_mhz=1.36,
        seed=17,
    )
    net = generate_network(spec)
    back = network_from_json(network_to_json(net))
    assert network_to_json(back) == network_to_json(net)
    assert np.array_equal(back.positions, net.positions)
    assert np.array_equal(back.detunings, net.detunings)
    assert np.array_equal(back.species, net.species)


@pytest.mark.parametrize(
    "spec, realization, digest, placed",
    [
        (
            EnsembleSpec(
                box_nm=60.0,
                densities_ppm={Species.NV: 0.6, Species.P1: 1.575},
                disorder_mhz=1.36,
                seed=17,
            ),
            3,
            "72e8b5924acf4a1e91c5801394132e79fcbc6259547853965d821c19ac34433f",
            "2219c200dce59072a8661409084dbdd84d19e0976deace0df9331761efbdffc8",
        ),
        (
            EnsembleSpec(box_nm=30.0, densities_ppm={Species.P1: 6.3}, placement=Placement.DIAMOND_LATTICE, seed=4),
            1,
            "45f80fa53156f48f60b0ce4e613801dff881235c3e28e2a0926d559b1e62f96c",
            "eef8dee612d2d8d911aed962df6fa0569acdd572d46cb012ae7e852aa55c8d06",
        ),
    ],
)
def test_json_bytes_pinned(spec, realization, digest, placed):
    # SHA-256 of the JSON text the per-site-record serializer writes, and of
    # the positions and detunings alone, as the generator wrote them when it
    # still kept drawn axis and subgroup values: discarding those moved no site
    net = generate_network(spec, realization=realization)
    assert hashlib.sha256(network_to_json(net).encode()).hexdigest() == digest
    assert hashlib.sha256(net.positions.tobytes() + net.detunings.tobytes()).hexdigest() == placed


def test_validation_errors():
    with pytest.raises(ValueError, match="P1"):
        EnsembleSpec(box_nm=10.0, densities_ppm={Species.P1: -1.0})
    with pytest.raises(ValueError):
        EnsembleSpec(box_nm=-5.0, densities_ppm={})
    with pytest.raises(ValueError):
        EnsembleSpec(box_nm=10.0, densities_ppm={}, field_axis=(0, 0, 0))


def test_centred_box_redraws_until_the_centre_is_clear():
    spec = EnsembleSpec(box_nm=network.box_side(1.575, 18), densities_ppm={Species.P1: 1.575}, seed=3)
    drawn = []

    def blocking(first_clear):
        def generate(spec, realization):
            drawn.append(realization)
            net = generate_network(spec, realization=realization)
            if len(drawn) < first_clear:
                net.positions[0] = spec.box_nm / 2 + 0.5  # within the exclusion radius
            return net

        return generate

    net = centred_box(1.575, 18, Placement.CONTINUUM, 3, 7, blocking(3))
    assert drawn == [7, 1007, 2007]
    base = generate_network(spec, realization=2007)
    assert net.spec == spec and net.realization == 7
    assert np.array_equal(net.positions[1:], base.positions)
    assert np.array_equal(net.positions[0], np.full(3, spec.box_nm / 2))
    assert net.species.tolist() == [0] + [1] * 18
    assert not (net.axis_index.any() or net.subgroup.any() or net.detunings.any())
    drawn.clear()
    with pytest.raises(GenerationError, match="100 attempts"):
        centred_box(1.575, 18, Placement.CONTINUUM, 0, 0, blocking(101))
    assert len(drawn) == 100
