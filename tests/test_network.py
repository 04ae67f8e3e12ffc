import hashlib
import math

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
    centred_draw,
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


def test_axes_uniform_and_pinnable():
    spec = EnsembleSpec(box_nm=120.0, densities_ppm={Species.P1: 10.0}, seed=11)
    net = generate_network(spec)
    axes = network.NV_AXES[net.axis_index]
    assert np.allclose(np.linalg.norm(axes, axis=1), 1.0)
    counts = [np.sum(np.all(np.isclose(axes, ax), axis=1)) for ax in network.NV_AXES]
    n = len(net.axis_index)
    assert sum(counts) == n
    for c in counts:
        assert abs(c / n - 0.25) < 5 * math.sqrt(0.25 * 0.75 / n)

    pinned = EnsembleSpec(
        box_nm=60.0,
        densities_ppm={Species.NV: 2.0},
        axis_weights={Species.NV: (1, 0, 0, 0)},
        seed=2,
    )
    pin_net = generate_network(pinned)
    assert np.allclose(network.NV_AXES[pin_net.axis_index], network.NV_AXES[0])
    assert np.all(pin_net.subgroup == 0)


def test_p1_subgroup_fractions():
    spec = EnsembleSpec(box_nm=200.0, densities_ppm={Species.P1: 10.0}, seed=13)
    net = generate_network(spec)
    groups = net.subgroup
    n = len(groups)
    expected = network.P1_SUBGROUP_WEIGHTS
    for g in range(5):
        frac = np.sum(groups == g) / n
        assert abs(frac - expected[g]) < 5 * math.sqrt(expected[g] * (1 - expected[g]) / n)


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
        axis_weights={Species.NV: (1, 0, 0, 0)},
    )
    net = generate_network(spec)
    back = network_from_json(network_to_json(net))
    assert network_to_json(back) == network_to_json(net)
    assert np.array_equal(back.positions, net.positions)
    assert np.array_equal(back.detunings, net.detunings)
    assert np.array_equal(back.species, net.species)


@pytest.mark.parametrize(
    "spec, realization, digest",
    [
        (
            EnsembleSpec(
                box_nm=60.0,
                densities_ppm={Species.NV: 0.6, Species.P1: 1.575},
                disorder_mhz=1.36,
                seed=17,
                axis_weights={Species.NV: (1, 0, 0, 0)},
            ),
            3,
            "0c1b657ed322dd11eefbf2746a38ccb98455978786b8f175c03ec9a7afa4d71f",
        ),
        (
            EnsembleSpec(box_nm=30.0, densities_ppm={Species.P1: 6.3}, placement=Placement.DIAMOND_LATTICE, seed=4),
            1,
            "736abc19a6d72c93be52d3531308b636cdaa47f450a473265557786edae09faf",
        ),
    ],
)
def test_json_bytes_pinned(spec, realization, digest):
    # SHA-256 of the JSON text the per-site-record serializer wrote
    text = network_to_json(generate_network(spec, realization=realization))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_validation_errors():
    with pytest.raises(ValueError, match="P1"):
        EnsembleSpec(box_nm=10.0, densities_ppm={Species.P1: -1.0})
    with pytest.raises(ValueError):
        EnsembleSpec(box_nm=-5.0, densities_ppm={})
    with pytest.raises(ValueError):
        EnsembleSpec(box_nm=10.0, densities_ppm={}, field_axis=(0, 0, 0))


def test_centred_draw_redraws_until_the_centre_is_clear():
    spec = EnsembleSpec(box_nm=40.0, densities_ppm={Species.P1: 1.575}, seed=3)
    drawn = []

    def blocking(first_clear):
        def generate(spec, realization):
            drawn.append(realization)
            net = generate_network(spec, realization=realization)
            if len(drawn) < first_clear:
                net.positions[0] = spec.box_nm / 2 + 0.5  # within the exclusion radius
            return net

        return generate

    net = centred_draw(spec, 7, blocking(3))
    assert drawn == [7, 1007, 2007]
    base = generate_network(spec, realization=2007)
    assert np.array_equal(net.positions[1:], base.positions) and net.realization == 7
    assert np.array_equal(net.positions[0], np.full(3, 20.0))
    drawn.clear()
    with pytest.raises(GenerationError, match="100 attempts"):
        centred_draw(spec, 0, blocking(101))
    assert len(drawn) == 100
