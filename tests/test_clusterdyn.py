import math

import numpy as np
import pytest

from spinnet import clusterdyn, fitkit
from spinnet.clusterdyn import (
    TraceResult,
    calibrate_alpha,
    deer_trace,
    default_tau_grid,
    estimate_concentration,
    extract_dephasing_rate,
    fft_peak,
    mean_field_deer_rate,
    run_deer,
    run_rabi,
    sample_nv_p1_cluster,
)
from spinnet.constants import J0_MHZ_NM3, PPM_TO_PER_NM3, TWO_PI
from spinnet.fitkit import FitError
from spinnet.network import EnsembleSpec, Placement, Species, SpinNetwork, species_code
from spinnet.spinops import Frame, build_cluster_hamiltonian

Z = np.array([0.0, 0.0, 1.0])


def cluster(positions, species, subgroup=None, axis_index=None, field_axis=Z, box_nm=1.0):
    """Sites at ``positions`` with the given species, on axis 0 and in
    subgroup 0 unless given, quantized along ``field_axis``."""
    n = len(species)
    zeros = np.zeros(n, dtype=int)
    return SpinNetwork(
        EnsembleSpec(box_nm=box_nm, densities_ppm={}, field_axis=tuple(field_axis)),
        positions,
        [species_code(sp) for sp in species],
        zeros if axis_index is None else axis_index,
        zeros if subgroup is None else subgroup,
        np.zeros(n),
    )


def test_deer_single_bath_spin_cosine():
    # NV at origin, one P1 10 nm away perpendicular to the field:
    # J = 0.052 MHz, NV-scaled to sqrt(2) J
    net = cluster([[0, 0, 0], [10.0, 0, 0]], [Species.NV, Species.P1])
    tau = np.linspace(0.0, 20.0, 101)
    trace = run_deer(lambda r: net, tau, n_realizations=2, seed=3)
    expected = np.cos(TWO_PI * math.sqrt(2) * 0.052 * tau)
    assert np.abs(trace.signal - expected).max() < 1e-6
    assert np.all(np.abs(trace.signal) <= 1 + 1e-12)


@pytest.mark.parametrize("placement", list(Placement))
@pytest.mark.parametrize("density_ppm", [2.4, 6.3])
def test_sampled_one_spin_deer_is_the_ising_cosine(density_ppm, placement):
    # one bath spin: the echo phase is exactly 2 pi sqrt(2) J tau, with J the
    # bare dipolar coupling of the pair along the field axis
    tau = default_tau_grid(density_ppm)
    for r in range(20):
        net = sample_nv_p1_cluster(density_ppm, n_bath=1, seed=0, realization=r, placement=placement)
        rvec = net.positions[1] - net.positions[0]
        dist = np.linalg.norm(rvec)
        cos = rvec @ np.ones(3) / (math.sqrt(3.0) * dist)
        j = J0_MHZ_NM3 * (1.0 - 3.0 * cos**2) / dist**3
        trace = run_deer(lambda k: net, tau, seed=r)
        assert np.abs(trace.signal - np.cos(TWO_PI * math.sqrt(2.0) * j * tau)).max() <= 1e-13


def test_deer_empty_bath_is_flat_hahn_echo():
    net = cluster([[0, 0, 0]], [Species.NV])
    tau = np.linspace(0.0, 10.0, 21)
    trace = run_deer(lambda r: net, tau, n_realizations=1)
    assert np.abs(trace.signal - 1.0).max() < 1e-10


def test_run_deer_rejects_oversize_cluster():
    # 13 spins (dimension 8192) exceed the cap before any matrix is built
    net = cluster([[2.0 * k, 0, 0] for k in range(13)], [Species.P1] * 13)
    with pytest.raises(ValueError, match="cap"):
        run_deer(lambda r: net, np.linspace(0.0, 1.0, 3))


def test_hahn_echo_refocuses_static_ising_exactly():
    # mutually heterogeneous bath -> every coupling is Ising; without the
    # bath pi the echo must refocus exactly for any realization
    rng = np.random.default_rng(5)
    net = cluster(
        [[8, 8, 8]] + [rng.uniform(0, 16, 3) for _ in range(4)],
        [Species.NV] + [Species.P1] * 4,
        subgroup=range(5),
    )
    tau = np.linspace(0.0, 12.0, 25)
    trace = run_deer(lambda r: net, tau, n_realizations=3, bath_pi=False, seed=9)
    assert np.abs(trace.signal - 1.0).max() < 1e-10


def test_deer_decay_fits_stretched_exponential():
    trace = deer_trace(6.3, n_realizations=150, seed=1)
    assert trace.signal[0] == pytest.approx(1.0, abs=1e-12)
    fit = extract_dephasing_rate(trace)
    assert fit.fit.converged
    assert 0.15 < fit.t2_us < 0.8
    assert 0.5 < fit.beta < 1.6
    # the trace decays deep into the tail over the default grid
    assert np.mean(trace.signal[-8:]) < 0.2


def test_tau_grid_scales_inversely_with_density():
    assert default_tau_grid(2.0).max() == pytest.approx(2 * default_tau_grid(4.0).max())
    with pytest.raises(ValueError):
        default_tau_grid(0.0)


def test_cluster_builders():
    cl = sample_nv_p1_cluster(6.3, n_bath=5, seed=2, realization=0)
    assert cl.n_sites == 6
    assert cl.species[0] == species_code(Species.NV)
    assert all(code == species_code(Species.P1) for code in cl.species[1:])
    box = clusterdyn._cluster_box_nm(6.3, 5)
    center = np.full(3, box / 2)
    assert np.allclose(cl.positions[0], center)
    dists = [np.linalg.norm(pos - center) for pos in cl.positions[1:]]
    assert min(dists) >= 1.0


def nv_nv_cluster(realization, groups=(0, 1, 1, 2, 2), density_ppm=2.4):
    """An NV sensor at the box centre plus NV partners on the given axis
    groups, placed uniformly in a box of the given NV density."""
    box = clusterdyn._cluster_box_nm(density_ppm, len(groups) + 1)
    rng = np.random.default_rng([4, realization])
    return cluster(
        [np.full(3, box / 2)] + [rng.uniform(0, box, 3) for _ in groups],
        [Species.NV] * (len(groups) + 1),
        subgroup=[0, *groups],
        axis_index=[0, *groups],
        field_axis=(1.0, 1.0, 1.0),
        box_nm=box,
    )


def test_cluster_path_reads_columns_only(monkeypatch):
    # per-site records must not creep back into the cluster path
    def no_records(self):
        raise AssertionError("the cluster path built per-site records")

    monkeypatch.setattr(SpinNetwork, "sites", property(no_records))
    net = sample_nv_p1_cluster(6.3, n_bath=4, seed=1)
    for frame in Frame:
        assert build_cluster_hamiltonian(net, frame).dim == 32
    trace = deer_trace(6.3, n_realizations=3, n_bath=4, seed=1)
    assert trace.signal[0] == pytest.approx(1.0, abs=1e-12)


def test_nv_nv_deer_smoke():
    tau = np.linspace(0.0, 2.0, 25)
    trace = run_deer(
        nv_nv_cluster,
        tau,
        n_realizations=30,
        seed=4,
    )
    assert trace.signal[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(trace.signal) <= 1 + 1e-12)


def test_rabi_single_spin_and_fft():
    t = np.arange(512) * 0.01
    trace = run_rabi(6.40, t)
    peak = fft_peak(trace)
    df = 1.0 / (512 * 0.01)
    assert peak == pytest.approx(6.40, abs=df)

    flat = run_rabi(0.0, t)
    assert np.ptp(flat.signal) < 1e-12
    assert fft_peak(flat) is None


def test_rabi_detuned_frequency_and_contrast():
    omega = 4.0
    t = np.arange(1024) * 0.005
    trace = run_rabi(omega, t, detuning_mhz=omega)
    df = 1.0 / (1024 * 0.005)
    assert fft_peak(trace) == pytest.approx(math.sqrt(2) * omega, abs=df)
    # contrast Omega^2/Omega_eff^2 = 1/2: signal spans [0, 1]
    assert trace.signal.min() == pytest.approx(0.0, abs=1e-3)
    assert trace.signal.max() == pytest.approx(1.0, abs=1e-6)


def test_extract_dephasing_rate_round_trip():
    t = np.linspace(0, 30, 80)
    y = np.exp(-((t / 10.0) ** 1.5))
    fit = extract_dephasing_rate(TraceResult(t, y, np.zeros_like(t), 1))
    assert fit.t2_us == pytest.approx(10.0, rel=1e-6)
    assert fit.beta == pytest.approx(1.5, rel=1e-6)
    assert fit.rate_mhz == pytest.approx(0.1, rel=1e-6)


def test_extract_dephasing_rate_coverage():
    rng = np.random.default_rng(8)
    t = np.linspace(0, 30, 60)
    truth = np.exp(-((t / 10.0) ** 1.5))
    hits = 0
    for _ in range(100):
        y = truth + rng.normal(0, 0.02, t.size)
        fit = extract_dephasing_rate(TraceResult(t, y, np.full(t.size, 0.02), 1))
        if abs(fit.t2_us - 10.0) < 1.96 * fit.fit.sigma("t2"):
            hits += 1
    assert hits >= 88


def test_flat_trace_raises_not_fits():
    t = np.linspace(0, 10, 20)
    with pytest.raises(FitError, match="no decay"):
        extract_dephasing_rate(TraceResult(t, np.ones_like(t), np.zeros_like(t), 1))


def test_calibrate_alpha():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    res = calibrate_alpha(d, 0.1 * d)
    assert res["slope"] == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(FitError):
        calibrate_alpha([5.0], [0.5])


def test_mean_field_deer_rate():
    assert round(mean_field_deer_rate(2.4), 3) == 0.989
    assert round(mean_field_deer_rate(6.3), 3) == 2.595
    # n Int d^3r [1 - cos(c (1 - 3u^2) / r^3)] with c = TWO_PI sqrt(2) J0 tau:
    # the radial integral is pi |c (1 - 3u^2)| / 6, which leaves
    # k = (pi^2 / 3) TWO_PI sqrt(2) J0 Int_{-1}^{1} |1 - 3u^2| du
    u = np.linspace(-1.0, 1.0, 200_001)
    k = math.pi**2 / 3 * TWO_PI * math.sqrt(2.0) * J0_MHZ_NM3 * np.trapezoid(np.abs(1 - 3 * u**2), u)
    assert mean_field_deer_rate(1.0) == pytest.approx(k * PPM_TO_PER_NM3, rel=1e-8)


def reference_estimate_concentration(gamma, gamma_sigma, k, k_sigma, n_mc=10_000, seed=0):
    """gamma / K as the generic Monte Carlo propagation computed it: one
    column per input drawn from (n, inputs) normals, draws with K <= 0
    vetoed, the ratio over the kept columns.  Returns (mean, sigma,
    n_rejected)."""
    means = np.asarray([gamma, k], dtype=float)
    sigmas = np.asarray([gamma_sigma, k_sigma], dtype=float)
    draws = np.random.default_rng(seed).normal(means, sigmas, size=(n_mc, means.size))
    cols = [draws[:, i] for i in range(means.size)]
    keep = ~(cols[1] <= 0)
    g, kk = (c[keep] for c in cols)
    values = np.asarray(g / kk, dtype=float)
    sigma = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return float(np.mean(values)), sigma, int(n_mc - keep.sum())


def assert_matches_reference(est, *args, **kwargs):
    mean, sigma, n_rejected = reference_estimate_concentration(*args, **kwargs)
    assert est.mean_ppm == mean
    assert est.sigma_ppm == sigma
    assert est.n_rejected == n_rejected


def test_estimate_concentration():
    exact = estimate_concentration(0.063, 0.0, 0.01, 0.0, n_mc=100)
    assert exact.mean_ppm == pytest.approx(6.3, rel=1e-12)
    assert exact.sigma_ppm == pytest.approx(0.0, abs=1e-12)
    assert_matches_reference(exact, 0.063, 0.0, 0.01, 0.0, n_mc=100)

    # 10% sigma on both inputs -> ~14% on the ratio (first-order quadrature)
    res = estimate_concentration(1.0, 0.1, 1.0, 0.1, n_mc=50_000, seed=2)
    rel = res.sigma_ppm / res.mean_ppm
    assert rel == pytest.approx(math.sqrt(0.1**2 + 0.1**2), rel=0.10)
    assert not res.rejection_warning
    assert_matches_reference(res, 1.0, 0.1, 1.0, 0.1, n_mc=50_000, seed=2)

    # K within 1.3 sigma of zero: about 9% of the draws are rejected
    wide = estimate_concentration(1.0, 0.1, 0.2, 0.15, n_mc=20_000, seed=3)
    assert 0.08 * 20_000 < wide.n_rejected < 0.10 * 20_000
    assert_matches_reference(wide, 1.0, 0.1, 0.2, 0.15, n_mc=20_000, seed=3)


def test_estimate_concentration_rejection_warning():
    # the flag is raised past 1% rejected draws: K 2.5 sigma from zero
    # rejects about 0.6%, K 1.3 sigma from zero about 9%
    close = estimate_concentration(1.0, 0.1, 1.0, 0.4, n_mc=20_000, seed=3)
    assert 0 < close.n_rejected <= 0.01 * 20_000
    assert not close.rejection_warning
    wide = estimate_concentration(1.0, 0.1, 0.2, 0.15, n_mc=20_000, seed=3)
    assert wide.n_rejected > 0.01 * 20_000
    assert wide.rejection_warning
    # a run whose every draw is rejected has no estimate (the one K draw at seed 0 is negative)
    with pytest.raises(FitError, match="all Monte Carlo draws rejected"):
        estimate_concentration(1.0, 0.1, 0.1, 1.0, n_mc=1, seed=0)
    with pytest.raises(ValueError, match="K must be positive"):
        estimate_concentration(1.0, 0.1, 0.0, 0.1)


def test_sem_scales_with_realization_count():
    tau = np.linspace(0.0, 1.0, 9)
    small = run_deer(
        lambda r: sample_nv_p1_cluster(6.3, seed=6, realization=r),
        tau,
        n_realizations=25,
        seed=6,
    )
    large = run_deer(
        lambda r: sample_nv_p1_cluster(6.3, seed=6, realization=r),
        tau,
        n_realizations=250,
        seed=6,
    )
    ratio = np.mean(small.sem[1:]) / np.mean(large.sem[1:])
    assert ratio == pytest.approx(math.sqrt(10), rel=0.2)
