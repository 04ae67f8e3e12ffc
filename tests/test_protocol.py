import math

import numpy as np
import numpy.testing as npt
import pytest

from spinnet import experiments, protocol
from spinnet.constants import TWO_PI
from spinnet.network import NV_AXES, EnsembleSpec, Placement, Species, SpinSite
from spinnet.protocol import (
    CROSSOVER,
    enhancement,
    estimate_p1_polarization,
    fit_crossover,
    fit_saturation,
    readout_equilibration,
    run_iterative_protocol,
    spin_temperature,
    thermal_polarization,
)
from spinnet.transport import build_rates, factor_generator, pair_table
from run_settings import cycle, protocol_factory
from test_network_reference import network_from_sites, reference_build_rates


def desk_factory(r, **params):
    return protocol_factory(0, **params)(r)


def pair_network(r_nm=4.0, bath_first=False):
    # one sensor and one bath spin separated along the field axis
    axis = NV_AXES[0]
    spec = EnsembleSpec(
        box_nm=40.0,
        densities_ppm={Species.NV: 0.1, Species.P1: 0.1},
        placement=Placement.CONTINUUM,
        disorder_mhz=0.0,
    )
    center = np.full(3, 20.0)
    sites = [
        SpinSite(0, center, Species.NV, axis.copy(), 0, 0.0),
        SpinSite(1, center + r_nm * axis, Species.P1, axis.copy(), 0, 0.0),
    ]
    return network_from_sites(spec, sites[::-1] if bath_first else sites, realization=0)


def test_cycle_config_validation():
    with pytest.raises(ValueError, match="cycle count"):
        cycle(omega_mhz=6.4, n_cycles=33)
    with pytest.raises(ValueError, match="cycle count"):
        cycle(omega_mhz=6.4, n_cycles=1)
    with pytest.raises(ValueError, match="positive"):
        cycle(omega_mhz=-1.0)
    with pytest.raises(ValueError, match="reset polarization"):
        cycle(omega_mhz=6.4, p_nv0=1.2)
    with pytest.raises(ValueError, match="durations"):
        cycle(omega_mhz=6.4, t_hh_us=0.0)


def test_protocol_network_layout():
    net = desk_factory(0, n_p1=120)
    nv = net.indices_of(Species.NV)
    p1 = net.indices_of(Species.P1)
    assert p1.size == 120
    assert nv.size == round(0.6 / 1.575 * 120)
    assert np.all(net.subgroup == 0)
    for axis in NV_AXES[net.axis_index]:
        npt.assert_allclose(axis, NV_AXES[0], atol=1e-12)
    again = desk_factory(0, n_p1=120)
    npt.assert_array_equal(net.positions, again.positions)


def test_missing_species_raises():
    spec = EnsembleSpec(
        box_nm=50.0,
        densities_ppm={Species.P1: 1.575},
        placement=Placement.CONTINUUM,
    )
    from spinnet.network import generate_network

    net = generate_network(spec, realization=0)
    with pytest.raises(ValueError, match="sensor"):
        run_iterative_protocol(lambda r: net, [cycle(omega_mhz=6.4)], 1)


def test_sensors_must_lead_the_network():
    # the cycle loop reads the sensors as the leading slice of the sites
    with pytest.raises(ValueError, match="sensors must lead"):
        run_iterative_protocol(lambda r: pair_network(bath_first=True), [cycle(omega_mhz=6.4)], 1)


def test_isolated_pair_shares_polarization():
    # one long exchange phase with relaxation switched off splits the
    # sensor polarization evenly across the pair
    config = cycle(
        omega_mhz=6.4,
        t_hh_us=1e7,
        n_cycles=2,
        t1rho_dark_us=1e15,
        t1rho_nv_us=None,
        probe_k=1,
    )
    (res,) = run_iterative_protocol(lambda r: pair_network(), [config], 1)
    npt.assert_allclose(res.p_nv[0], 0.375, atol=1e-6)
    npt.assert_allclose(res.p_p1[0], 0.375, atol=1e-6)


def test_hh_phase_conserves_total_polarization():
    net = desk_factory(0, n_p1=60)
    config = cycle(omega_mhz=6.4, t1rho_dark_us=1e15, t1rho_nv_us=None)
    rm = build_rates(pair_table(net), 6.4)
    gen = factor_generator(rm, protocol._relaxation(net, config.t1rho_dark_us, config.t1rho_nv_us))
    p = np.zeros(len(net.positions))
    p[net.indices_of(Species.NV)] = 0.75
    assert abs(gen.propagate(p, config.t_hh_us)[0].sum() - p.sum()) < 1e-6 * p.sum()


def test_desk_run_monotone_and_bounded():
    (res,) = run_iterative_protocol(desk_factory, [cycle(omega_mhz=6.4)], n_realizations=20)
    assert np.all(res.p_p1 >= -1e-12)
    assert np.all(res.p_p1 <= 1.0)
    assert np.all(res.p_nv <= 1.0)
    drops = np.diff(res.p_p1)
    assert np.all(drops > -3.0 * res.p_p1_sem[1:])
    sat = res.saturation
    assert 2.0 < sat["tau"] < 4.0
    assert 0.05 < sat["amp"] < 0.25


def test_slower_laser_relaxation_raises_both_fit_parameters():
    (fast,) = run_iterative_protocol(desk_factory, [cycle(omega_mhz=6.4)], n_realizations=10)
    (slow,) = run_iterative_protocol(
        desk_factory, [cycle(omega_mhz=6.4, t1rho_laser_us=1e9)], n_realizations=10
    )
    fast, slow = fast.saturation, slow.saturation
    assert slow["amp"] > fast["amp"]
    assert slow["tau"] > fast["tau"]


def test_saturation_monotone_in_drive():
    out = []
    for omega in (0.5, 2.0, 6.4):
        (res,) = run_iterative_protocol(desk_factory, [cycle(omega_mhz=omega)], n_realizations=10)
        out.append(res.saturation["amp"])
    assert out[0] < out[1] < out[2]


def test_fit_saturation_round_trip():
    n = np.arange(1.0, 33.0)
    a = 0.143 * (1.0 - np.exp(-n / 3.0))
    res = fit_saturation(n, a)
    npt.assert_allclose(res["amp"], 0.143, rtol=1e-8)
    npt.assert_allclose(res["tau"], 3.0, rtol=1e-8)
    # the model is pinned to zero amplitude at N = 0
    assert protocol.fitkit.EXP_SATURATION.func(0.0, 0.143, 3.0) == 0.0


def test_fit_crossover_round_trip_and_half_point():
    omega = np.array([0.5, 1.0, 2.0, 3.2, 6.4, 10.0])
    a = CROSSOVER.func(omega, 0.143, 1.36)
    res = fit_crossover(omega, a)
    npt.assert_allclose(res["a_inf"], 0.143, atol=1e-6)
    npt.assert_allclose(res["w"], 1.36, atol=1e-6)
    npt.assert_allclose(CROSSOVER.func(1.36, 0.143, 1.36), 0.143 / 2.0, rtol=1e-12)


def test_fit_crossover_with_noise_recovers_width():
    rng = np.random.default_rng(5)
    omega = np.array([0.5, 1.0, 2.0, 3.2, 6.4, 10.0])
    clean = CROSSOVER.func(omega, 0.143, 1.36)
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(omega.size))
    res = fit_crossover(omega, noisy)
    assert abs(res["w"] - 1.36) < 0.2


def test_estimate_p1_polarization_examples():
    npt.assert_allclose(estimate_p1_polarization(0.143, 2.6, 0.75), 0.0742, atol=5e-4)
    assert estimate_p1_polarization(0.0, 2.6, 0.75) == 0.0
    npt.assert_allclose(estimate_p1_polarization(1.0, 1.0, 0.75), 0.75, rtol=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_p1_polarization(-0.1, 2.6, 0.75)
    with pytest.raises(ValueError, match="ratio"):
        estimate_p1_polarization(0.1, 0.0, 0.75)


def test_temperature_chain_values():
    t = spin_temperature(0.074, 446.0)
    npt.assert_allclose(t, 0.4045, atol=0.005)
    p_th = thermal_polarization(300.0, 446.0)
    npt.assert_allclose(p_th, 1.0e-4, rtol=2e-2)
    npt.assert_allclose(enhancement(0.074, p_th), 740.0, rtol=0.05)


def test_temperature_round_trip_and_domain():
    for p in (0.01, 0.074, 0.5):
        npt.assert_allclose(thermal_polarization(spin_temperature(p, 446.0), 446.0), p, rtol=1e-12)
    with pytest.raises(ValueError, match="below 1"):
        spin_temperature(1.0, 446.0)
    assert spin_temperature(0.0, 446.0) == math.inf
    assert spin_temperature(-0.1, 446.0) == math.inf
    with pytest.raises(ValueError, match="temperature"):
        thermal_polarization(0.0, 446.0)
    with pytest.raises(ValueError, match="field"):
        spin_temperature(0.1, 0.0)


def test_readout_zero_preparation_is_null():
    net = desk_factory(0, n_p1=60)
    eq = readout_equilibration(lambda r: net, cycle(omega_mhz=6.40), 1, p_p1=0.0)
    npt.assert_allclose(eq.delta_c, 0.0, atol=1e-12)


def test_readout_sign_flip_antisymmetric():
    net = desk_factory(1, n_p1=60)
    a = readout_equilibration(lambda r: net, cycle(omega_mhz=6.40), 1, p_p1=0.074)
    b = readout_equilibration(lambda r: net, cycle(omega_mhz=6.40), 1, p_p1=-0.074)
    npt.assert_allclose(a.delta_c, -b.delta_c, atol=1e-14)


def test_readout_equilibrates_fast_and_rises():
    eq = readout_equilibration(desk_factory, cycle(omega_mhz=6.40), 10)
    assert eq.fit["tau"] < 430.0 / 50.0
    assert eq.delta_c[0] == 0.0
    assert eq.delta_c[-1] > 0.0


def test_quasi_equilibrium_recovers_prepared_polarization():
    net = desk_factory(2, n_p1=80)
    nv = net.indices_of(Species.NV)
    p1 = net.indices_of(Species.P1)
    times = np.concatenate([[0.0], np.geomspace(1.0, 5e4, 30)])
    config = cycle(omega_mhz=6.40, t1rho_dark_us=1e12, t1rho_nv_us=None)
    eq = readout_equilibration(lambda r: net, config, 1, times_us=times, p_p1=0.074)
    est = estimate_p1_polarization(eq.delta_c[-1], p1.size / nv.size, config.p_nv0)
    npt.assert_allclose(est, 0.074, rtol=0.10)


def test_protocol_csv():
    net = desk_factory(3, n_p1=40)
    (res,) = run_iterative_protocol(lambda r: net, [cycle(omega_mhz=6.4)], 1)
    text = experiments._trajectory_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "cycle,p_nv,p_p1"
    assert len(lines) == 33
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 1.0



def reference_protocol(factory, config, n_realizations):
    """The drive-by-drive protocol loop: every network and its rates rebuilt per config.

    Rates come from the per-site ``reference_build_rates``, the generator
    and probe set are formed inline, so nothing is shared with the
    pair-table path of ``run_iterative_protocol``.
    """
    nv_runs = np.empty((n_realizations, config.n_cycles))
    p1_runs = np.empty((n_realizations, config.n_cycles))
    for r in range(n_realizations):
        net = factory(r)
        nv = net.indices_of(Species.NV)
        p1 = net.indices_of(Species.P1)
        rates = reference_build_rates(net.spec, net.sites, config.omega_mhz)
        t1 = np.full(net.n_sites, config.t1rho_dark_us)
        t1[nv] = np.inf if config.t1rho_nv_us is None else config.t1rho_nv_us
        relax = np.where(np.isfinite(t1), 1.0 / t1, 0.0)
        evals, evecs = np.linalg.eigh(np.diag(rates.sum(axis=1) + relax) - rates)
        decay = np.exp(-evals * config.t_hh_us)
        center = np.full(3, net.spec.box_nm / 2.0)
        probe_nv = nv[np.argmin(np.linalg.norm(net.positions[nv] - center, axis=1))]
        dist = np.linalg.norm(net.positions[p1] - net.positions[probe_nv], axis=1)
        probe = p1[np.argsort(dist)[: min(config.probe_k, p1.size)]]
        laser_decay = math.exp(-config.t_laser_us / config.t1rho_laser_us)
        p = np.zeros(net.n_sites)
        p[nv] = config.p_nv0
        for cycle in range(config.n_cycles):
            p = evecs @ (decay * (evecs.T @ p))
            nv_runs[r, cycle] = p[nv].mean()
            p1_runs[r, cycle] = p[probe].mean()
            p[p1] *= laser_decay
            p[nv] = config.p_nv0
    cycles = np.arange(1, config.n_cycles + 1, dtype=float)
    p_nv, nv_sem = protocol.fitkit.reduce_mean_sem(nv_runs)
    p_p1, p1_sem = protocol.fitkit.reduce_mean_sem(p1_runs)
    saturation = fit_saturation(cycles, p_p1, sem=p1_sem)
    return protocol.ProtocolResult(cycles, p_nv, p_p1, nv_sem, p1_sem, n_realizations, saturation)


def assert_same_result(got, want):
    for name in ("cycles", "p_nv", "p_p1", "p_nv_sem", "p_p1_sem"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.n_realizations == want.n_realizations
    assert np.array_equal(got.saturation.params, want.saturation.params)


# four drives, a short run, a relaxation-free sensor and a probe set larger
# than the bath
SWEEP_CONFIGS = (
    cycle(omega_mhz=0.8),
    cycle(omega_mhz=3.2, n_cycles=12, t1rho_nv_us=None, probe_k=3),
    cycle(omega_mhz=6.4, t_hh_us=2.0),
    cycle(omega_mhz=20.0, n_cycles=5, t1rho_dark_us=200.0, probe_k=50),
)


def test_config_sequence_equals_one_run_per_config():
    factory = lambda r: desk_factory(r, n_p1=40)
    together = run_iterative_protocol(factory, SWEEP_CONFIGS, n_realizations=4)
    assert isinstance(together, list) and len(together) == len(SWEEP_CONFIGS)
    for got, config in zip(together, SWEEP_CONFIGS):
        assert_same_result(got, run_iterative_protocol(factory, [config], n_realizations=4)[0])
        assert_same_result(got, reference_protocol(factory, config, 4))


def test_config_sequence_on_one_network_equals_one_run_per_config():
    net = desk_factory(5, n_p1=40)
    factory = lambda r: net
    together = run_iterative_protocol(factory, SWEEP_CONFIGS, 1)
    for got, config in zip(together, SWEEP_CONFIGS):
        # one realization: its own row and a zero SEM
        assert not got.p_nv_sem.any() and not got.p_p1_sem.any()
        assert_same_result(got, run_iterative_protocol(factory, [config], 1)[0])
        assert_same_result(got, reference_protocol(factory, config, 1))
