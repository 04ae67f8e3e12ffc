import inspect
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse import identity as sparse_identity

from spinnet import transport
from spinnet.constants import TWO_PI
from spinnet.network import EnsembleSpec, Species, SpinNetwork, ppm_to_density, species_code
from spinnet.protocol import protocol_network
from spinnet.spinops import Frame, build_cluster_hamiltonian
from spinnet.transport import (
    GAMMA_MHZ,
    ConservationError,
    LanczosBasis,
    MsdCurve,
    RateMatrix,
    WindowError,
    average_msd,
    build_rates,
    diffusion_length,
    extract_diffusion,
    factor_generator,
    finite_size_extrapolate,
    integrate_master_equation,
    lanczos_basis,
    msd,
    pair_table,
    rate_cutoff,
    transport_network,
)
from test_network_reference import reference_build_rates


def two_site_rate_matrix(rate):
    rates = np.array([[0.0, rate], [rate, 0.0]])
    return RateMatrix(rates, cutoff_nm=60.0)


def test_rate_closed_form_on_resonant_pair():
    # two P1s of the same group on the field axis, no detuning:
    # J~ = J/8 and R = 2 J~^2 / Gamma
    net = transport_network(1.575, 2, w_mhz=0.0, seed=1, realization=0)
    p1 = net.indices_of(Species.P1)
    rm = build_rates(pair_table(net), 6.40)
    i, j = p1
    rvec = net.positions[j] - net.positions[i]
    r = np.linalg.norm(rvec)
    cos = rvec @ net.spec.field_axis_unit / r
    j_eff = 52.0 * (1.0 - 3.0 * cos**2) / r**3 / 8.0
    npt.assert_allclose(rm.rates[i, j], 2.0 * j_eff**2 / 0.15, rtol=1e-12)


def test_rate_detuning_dependence():
    gamma = GAMMA_MHZ
    omega = 6.40

    def rate(delta_i, delta_j):
        net = transport_network(1.575, 2, w_mhz=0.0, seed=1, realization=0)
        net.detunings[1] = delta_i
        net.detunings[2] = delta_j
        return build_rates(pair_table(net), omega).rates[1, 2]

    r0 = rate(0.0, 0.0)
    # craft a detuning so Omega_eff differs by exactly Gamma: the Lorentzian
    # halves and the tilt projection shrinks J~ by Omega/(Omega + Gamma)
    target = np.sqrt((omega + gamma) ** 2 - omega**2)
    npt.assert_allclose(rate(target, 0.0), 0.5 * (omega / (omega + gamma)) ** 2 * r0, rtol=1e-9)
    # equal detunings keep the pair resonant; only the projections remain
    npt.assert_allclose(rate(1.0, 1.0) / r0, (omega**2 / (omega**2 + 1.0)) ** 2, rtol=1e-9)


def dressed_duo(species, subgroup, detunings):
    """Two sites 20 nm apart at cos(theta) = 0.8 to the z field axis."""
    spec = EnsembleSpec(box_nm=40.0, densities_ppm={}, field_axis=(0.0, 0.0, 1.0))
    return SpinNetwork(
        spec, [[0.0, 0.0, 0.0], [12.0, 0.0, 16.0]], [species_code(sp) for sp in species], [0, 0], subgroup, detunings
    )


@pytest.mark.parametrize("delta_mhz", [0.0, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("species, subgroup", [
    ((Species.P1, Species.P1), [0, 0]),  # degenerate: J/8
    ((Species.P1, Species.P1), [0, 1]),  # across P1 groups: J/4
    ((Species.NV, Species.P1), [0, 0]),  # NV-P1: sqrt(2) J/4
])
def test_dressed_pair_transfers_at_two_pi_times_the_rate(species, subgroup, delta_mhz):
    # The rate convention, from the cluster layer: the flip-flop element V of
    # the dressed Hamiltonian between |+x,-x> and |-x,+x> is the pair table's
    # coupling, and the doublet with dressed frequencies Delta apart and
    # coherence decay 2 pi Gamma per us transfers population at W = 2 pi R
    # per us (Bloch equations), up to O((V/Gamma)^2) (4 (V/Gamma)^2 at
    # Delta = 0); at 20 nm V/Gamma < 0.015.
    omega, gamma = 6.40, GAMMA_MHZ
    plus_minus = np.kron(*[np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)] * 2)
    hx = plus_minus.T @ build_cluster_hamiltonian(dressed_duo(species, subgroup, [0.0, 0.0]), Frame.DRESSED).matrix @ plus_minus
    # the dressed frame conserves total Sx: the doublet is closed
    npt.assert_allclose(hx[[0, 0, 3, 3], [1, 2, 1, 2]], 0.0, atol=1e-18)
    # site 1's detuning puts its dressed frequency delta_mhz above site 0's
    net = dressed_duo(species, subgroup, [0.0, math.sqrt((omega + delta_mhz) ** 2 - omega**2)])
    pairs = pair_table(net)
    v = hx[1, 2].real
    npt.assert_allclose(v, pairs.fj[0], rtol=1e-12)
    rate = transport._pair_rates(pairs, omega, gamma)[0]

    # the doublet: flip-flop V tilted by sin(theta) per site, as the rate
    # layer projects it, and the mismatch of the dressed frequencies
    om_eff = np.hypot(omega, net.detunings)
    v_tilted = v * np.prod(omega / om_eff)
    mismatch = om_eff[0] - om_eff[1]
    # Bloch vector of the doublet, dr/dt = Omega x r - 2 pi Gamma (r_x, r_y, 0),
    # with Omega = 2 pi (2 V, 0, Delta); r_z = p(+x,-x) - p(-x,+x)
    ox, oz, g = TWO_PI * 2.0 * v_tilted, TWO_PI * mismatch, TWO_PI * gamma
    bloch = np.array([[-g, -oz, 0.0], [oz, -g, -ox], [0.0, ox, 0.0]])
    t1 = 20.0 / g  # the coherences have settled
    t2 = t1 + 1.0 / (TWO_PI * rate)
    w1, w2 = (expm(bloch * t)[2, 2] for t in (t1, t2))
    # dP_0/dt = W (P_1 - P_0) makes p(+x,-x) - p(-x,+x) decay at 2 W
    transfer = math.log(w1 / w2) / (2.0 * (t2 - t1))
    assert abs(transfer / (TWO_PI * rate) - 1.0) < 5.0 * (v_tilted / gamma) ** 2


def test_rate_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        RateMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), 60.0)
    with pytest.raises(ValueError, match="diagonal"):
        RateMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]), 60.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RateMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), 60.0)
    with pytest.raises(ValueError, match="positive"):
        net = transport_network(1.575, 2, seed=0, realization=0)
        build_rates(pair_table(net), -1.0)


def rk_propagate(rm, t1rho_us, p0, times):
    """Reference solution of dP/dt = -M P by explicit adaptive Runge-Kutta,
    independent of the spectral propagator: M = diag(sum_j R_ij + 1/T1rho)
    - R, with the step bounded by 0.1 / max(sum_j R_ij + 1/T1rho)."""
    r = rm.rates
    relax = 0.0 if t1rho_us is None else 1.0 / t1rho_us
    m = np.diag(r.sum(axis=1) + relax) - r
    scale = float(np.diag(m).max())
    sol = solve_ivp(
        lambda t, p: -(m @ p),
        (0.0, float(times.max())),
        p0,
        t_eval=times,
        method="RK45",
        max_step=0.1 / scale if scale > 0 else np.inf,
        rtol=1e-9,
        atol=1e-12,
    )
    assert sol.success, sol.message
    return sol.y.T


def test_two_site_closed_form_both_methods():
    rate = 0.08
    rm = two_site_rate_matrix(rate)
    times = np.linspace(0.0, 40.0, 17)
    expected = 0.5 * (1.0 + np.exp(-2.0 * rate * times))
    p0 = np.array([1.0, 0.0])
    for pol in (integrate_master_equation(factor_generator(rm), p0, times).polarization, rk_propagate(rm, None, p0, times)):
        npt.assert_allclose(pol[:, 0], expected, atol=1e-6)


def test_pure_relaxation_without_rates():
    rm = two_site_rate_matrix(0.0)
    times = np.linspace(0.0, 100.0, 11)
    traj = integrate_master_equation(factor_generator(rm, np.full(2, 1.0 / 430.0)), np.array([1.0, 1.0]), times)
    npt.assert_allclose(traj.polarization, np.exp(-times / 430.0)[:, None] * np.ones(2), rtol=1e-9)


def test_uniform_is_stationary():
    net = transport_network(1.575, 30, seed=5, realization=2)
    rm = build_rates(pair_table(net), 6.40)
    n = len(net.positions)
    p0 = np.full(n, 1.0 / n)
    traj = integrate_master_equation(factor_generator(rm), p0, np.array([0.0, 500.0, 5000.0]))
    npt.assert_allclose(traj.polarization, np.tile(p0, (3, 1)), atol=1e-9)


def test_conservation_and_maximum_principle():
    net = transport_network(1.575, 60, seed=9, realization=0)
    rm = build_rates(pair_table(net), 6.40)
    p0 = np.zeros(len(net.positions))
    p0[0] = 1.0
    traj = integrate_master_equation(factor_generator(rm), p0, np.geomspace(0.1, 2e4, 25))
    npt.assert_allclose(traj.polarization.sum(axis=1), 1.0, atol=1e-6)
    assert traj.polarization.min() >= -1e-9
    assert traj.polarization.max() <= 1.0 + 1e-9


def test_long_time_equilibration_on_connected_pair_chain():
    # three sites coupled in a chain equilibrate to the uniform state
    rates = np.array([[0.0, 0.05, 0.0], [0.05, 0.0, 0.02], [0.0, 0.02, 0.0]])
    rm = RateMatrix(rates, 60.0)
    traj = integrate_master_equation(factor_generator(rm), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e4]))
    npt.assert_allclose(traj.polarization[-1], 1.0 / 3.0, atol=1e-8)


def test_rk_matches_eigh_on_network():
    net = transport_network(1.575, 40, seed=7, realization=1)
    rm = build_rates(pair_table(net), 6.40)
    p0 = np.zeros(len(net.positions))
    p0[0] = 1.0
    times = np.linspace(0.0, 300.0, 7)
    a = integrate_master_equation(factor_generator(rm, np.full(net.n_sites, 1.0 / 430.0)), p0, times)
    npt.assert_allclose(a.polarization, rk_propagate(rm, 430.0, p0, times), atol=1e-7)


def test_msd_source_only_and_shell():
    positions = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    traj = transport.Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    curve = msd(traj, positions, 0)
    npt.assert_allclose(curve.msd_nm2, [0.0, 25.0], atol=1e-12)
    npt.assert_allclose(curve.survival, 1.0)


def test_extract_diffusion_linear_curve():
    t = np.linspace(0.0, 600.0, 200)
    curve = MsdCurve(t, 1.32 * t, np.ones_like(t))
    res = extract_diffusion(curve, d_avg_nm=15.34, box_nm=71.2)
    npt.assert_allclose(res.d_nm2_per_us, 0.22, rtol=1e-9)


def test_extract_diffusion_window_errors():
    t = np.linspace(0.0, 600.0, 50)
    saturating = MsdCurve(t, 100.0 * (1.0 - np.exp(-t / 5.0)), np.ones_like(t))
    with pytest.raises(WindowError, match="larger"):
        extract_diffusion(saturating, d_avg_nm=15.34, box_nm=71.2)
    with pytest.raises(WindowError, match="larger"):
        extract_diffusion(saturating, d_avg_nm=15.34, box_nm=20.0)


def test_empty_window_raises_before_any_realization(monkeypatch):
    # every box's realizations share one schedule, so a box too small for
    # its window is refused before any of them runs
    built = []
    monkeypatch.setattr(transport, "transport_network", lambda *a, **k: built.append(a))
    with pytest.raises(WindowError, match="analysis window is empty"):
        transport.diffusion_scaling(6.40, n_list=(800, 10), n_realizations=2)
    assert built == []


def test_extract_diffusion_ignores_early_transient():
    t = np.linspace(0.0, 600.0, 400)
    fast = np.where(t < 50.0, 5.0 * t, 250.0 + 0.3 * (t - 50.0))
    res = extract_diffusion(MsdCurve(t, fast, np.ones_like(t)), 15.34, 71.2)
    npt.assert_allclose(res.d_nm2_per_us, 0.05, rtol=2e-2)


def test_finite_size_extrapolation_round_trip():
    boxes = np.array([71.2, 89.7, 113.0, 142.4])
    d_l = 0.22 - 3.0 / boxes
    res = finite_size_extrapolate(boxes, d_l)
    npt.assert_allclose(res.d_inf_nm2_per_us, 0.22, rtol=1e-9)
    two = finite_size_extrapolate(boxes[:2], d_l[:2])
    npt.assert_allclose(two.d_inf_nm2_per_us, 0.22, rtol=1e-9)
    with pytest.raises(Exception, match="two box sizes"):
        finite_size_extrapolate(boxes[:1], d_l[:1])


def test_diffusion_length_value():
    npt.assert_allclose(diffusion_length(0.22, 30.0), np.sqrt(6.0 * 0.22 * 30.0), rtol=1e-12)
    assert diffusion_length(0.0, 30.0) == 0.0


def test_build_rates_cutoff_radius():
    net = transport_network(1.575, 2, seed=1, realization=0)
    rm = build_rates(pair_table(net), 6.40)
    # beyond the recorded cutoff every rate is dropped to zero
    assert 50.0 < rm.cutoff_nm < 70.0
    r = np.linalg.norm(net.positions[:, None, :] - net.positions[None, :, :], axis=-1)
    far = r > rm.cutoff_nm
    assert np.all(rm.rates[far] == 0.0)


def _x_at_distance(target, y):
    """x with sqrt(x*x + y*y) == target in floating point, or None."""
    x = math.sqrt(target * target - y * y)
    for _ in range(8):
        r = math.sqrt(x * x + y * y)
        if r == target:
            return x
        x = math.nextafter(x, math.inf if r < target else -math.inf)
    return None


def boundary_network(cutoff):
    """Site 0 (an NV) at the origin and three P1 sites whose distances to it
    are the float just below ``cutoff``, ``cutoff`` itself and the float just
    above, computed as pair_table computes them."""
    targets = (math.nextafter(cutoff, 0.0), cutoff, math.nextafter(cutoff, math.inf))
    found = []
    for target in targets:
        y = next(y for y in np.arange(10.0, 40.0, 0.25) if _x_at_distance(target, y) is not None)
        found.append((_x_at_distance(target, y), y))
    # one pair per plane, so the three sites sit far from each other
    (xa, ya), (xb, yb), (xc, yc) = found
    positions = [(0.0, 0.0, 0.0), (xa, ya, 0.0), (0.0, xb, yb), (yc, 0.0, xc)]
    spec = EnsembleSpec(box_nm=2.0 * cutoff, densities_ppm={Species.P1: 0.1})
    return SpinNetwork(spec, positions, [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0.0, 0.4, -0.3, 0.9])


def test_build_rates_cutoff_boundary_matches_reference():
    cutoff = rate_cutoff(0.15)
    net = boundary_network(cutoff)
    r = np.linalg.norm(net.positions[1:], axis=1)
    assert r[0] < cutoff and r[1] == cutoff and r[2] > cutoff
    got = build_rates(pair_table(net), 6.40)
    assert got.cutoff_nm == cutoff
    assert np.array_equal(got.rates, reference_build_rates(net.spec, net.sites, 6.40))
    assert got.rates[0, 1] > 0 and got.rates[0, 2] > 0 and got.rates[0, 3] == 0


def test_pair_table_refuses_a_longer_cutoff():
    net = transport_network(1.575, 60, w_mhz=1.36, seed=2, realization=1)
    # a narrower line's table holds more pairs; the rates drop the extra ones
    wide = pair_table(net, 0.05)
    assert wide.cutoff_nm == rate_cutoff(0.05) and wide.r.size > pair_table(net).r.size
    assert np.array_equal(build_rates(wide, 6.40).rates, build_rates(pair_table(net), 6.40).rates)
    table = pair_table(net, 0.3)
    assert table.cutoff_nm == rate_cutoff(0.3)
    with pytest.raises(ValueError, match=f"{rate_cutoff(GAMMA_MHZ):g} nm.*{rate_cutoff(0.3):g} nm"):
        build_rates(table, 6.40)


def test_pair_table_checks_the_exclusion_radius():
    net = transport_network(1.575, 20, seed=2, realization=0)
    net.positions[2] = net.positions[1] + [0.5, 0.0, 0.0]
    with pytest.raises(ValueError, match="exclusion radius"):
        pair_table(net)


def test_pair_table_and_rates_stay_below_dense_temporaries():
    # the dense pair table peaked near nine n x n float64 arrays at 801 sites
    net = transport_network(1.575, 800, w_mhz=1.36, seed=8, realization=0)
    dense = net.n_sites**2 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        table = pair_table(net)
        _, table_peak = tracemalloc.get_traced_memory()
        del table
        tracemalloc.reset_peak()
        build_rates(pair_table(net), 6.40)
        _, rates_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table_peak < dense
    assert rates_peak < 2 * dense


@pytest.mark.parametrize("make", [
    lambda: transport_network(1.575, 400, w_mhz=1.36, seed=3, realization=2),
    lambda: protocol_network(n_p1=120, seed=0, realization=1),
], ids=["transport", "protocol"])
def test_rates_exactly_symmetric(make):
    # eigh reads one triangle while the generator diagonal sums whole rows,
    # so the generator is an exact symmetric Laplacian only if R == R.T
    rates = build_rates(pair_table(make()), 6.40).rates
    assert np.count_nonzero(rates) > 0
    assert np.array_equal(rates, rates.T)


def test_transport_network_layout():
    net = transport_network(1.575, 50, w_mhz=1.36, seed=3, realization=4)
    assert net.species[0] == species_code(Species.NV)
    assert np.sum(net.species == species_code(Species.P1)) == 50
    box = (50 / ppm_to_density(1.575)) ** (1.0 / 3.0)
    npt.assert_allclose(net.positions[0], box / 2.0, atol=1e-9)
    p1_detunings = net.detunings[1:]
    assert np.std(p1_detunings) > 0.3
    again = transport_network(1.575, 50, w_mhz=1.36, seed=3, realization=4)
    npt.assert_array_equal(net.positions, again.positions)
    npt.assert_array_equal(net.detunings, again.detunings)


def test_average_msd_keeps_the_diffusion_defaults():
    # the one-box case takes the defaults of the schedule it shares
    one = inspect.signature(average_msd).parameters
    scaling = inspect.signature(transport.diffusion_scaling).parameters
    shared = ("n_realizations", "w_mhz", "gamma_mhz", "seed")
    assert [one[p].default for p in shared] == [scaling[p].default for p in shared] == [100, 1.36, GAMMA_MHZ, 0]


def test_average_msd_reaches_window_top():
    curve, box = average_msd(6.40, 1.575, 60, 4, seed=13)
    top = 0.5 * (box / 2.0) ** 2
    assert curve.msd_nm2.max() >= top
    assert abs(curve.msd_nm2[0]) < 1e-9
    assert np.all(curve.survival > 0.999)


def reference_average_msd(omega_mhz, density_ppm, n_p1, n_realizations, seed):
    """The adaptive-grid loop that rebuilds and refactors realization 0 for every probe.

    Rates come from the per-site ``reference_build_rates`` and the
    propagation is inline, so nothing is shared with the pair table or
    the factored generator of ``average_msd``.
    """
    box = (n_p1 / ppm_to_density(density_ppm)) ** (1.0 / 3.0)

    def one(realization, grid):
        net = transport_network(density_ppm, n_p1, seed=seed, realization=realization)
        rates = reference_build_rates(net.spec, net.sites, omega_mhz)
        evals, evecs = np.linalg.eigh(np.diag(rates.sum(axis=1)) - rates)
        p0 = np.zeros(net.n_sites)
        p0[0] = 1.0
        traj = (np.exp(-np.outer(grid, evals)) * (evecs.T @ p0)) @ evecs.T
        return msd(transport.Trajectory(grid, traj), net.positions, 0)

    t_end = 100.0
    for _ in range(8):
        if one(0, transport._default_time_grid(t_end)).msd_nm2.max() >= 0.5 * (box / 2.0) ** 2:
            break
        t_end *= 4.0
    grid = transport._default_time_grid(t_end)
    runs = [one(r, grid) for r in range(n_realizations)]
    mean, sem = transport.fitkit.reduce_mean_sem(np.array([c.msd_nm2 for c in runs]))
    surv = np.array([c.survival for c in runs]).mean(axis=0)
    return MsdCurve(grid, mean, surv, sem_nm2=sem), box


def test_average_msd_equals_probe_per_recompute_loop():
    # 0.5 MHz needs several probe grids before the curve reaches the window top
    for omega in (6.40, 0.5):
        got, box = average_msd(omega, 1.575, 50, 3, seed=5)
        want, want_box = reference_average_msd(omega, 1.575, 50, 3, seed=5)
        assert box == want_box
        assert np.array_equal(got.times_us, want.times_us), omega
        # the Lanczos propagation rounds differently from the dense oracle
        for name in ("msd_nm2", "survival", "sem_nm2"):
            a, b = getattr(got, name), getattr(want, name)
            npt.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.abs(b).max(), err_msg=f"{omega} {name}")


@pytest.mark.parametrize("omega", [6.40, 0.5])
def test_probe_propagates_each_grid_once(monkeypatch, omega):
    # the probe returns the row of the grid on which the curve crossed the
    # window top, without propagating that grid a second time
    grids = []

    def counted(gen, p0, times):
        grids.append(float(times[-1]))
        return integrate_master_equation(gen, p0, times)

    monkeypatch.setattr(transport, "integrate_master_equation", counted)
    curve, _ = average_msd(omega, 1.575, 50, 1, seed=5)
    assert grids == [100.0 * 4.0**k for k in range(len(grids))]
    assert grids[-1] == curve.times_us[-1]


def test_diffusion_monotone_in_drive():
    davg = ppm_to_density(1.575) ** (-1.0 / 3.0)
    out = {}
    for omega in (0.5, 6.40):
        curve, box = average_msd(omega, 1.575, 100, 5, seed=11)
        out[omega] = extract_diffusion(curve, davg, box).d_nm2_per_us
    assert out[6.40] > 3.0 * out[0.5]


def dense_msd(net, omega_mhz, times):
    p0 = np.zeros(net.n_sites)
    p0[0] = 1.0
    traj = integrate_master_equation(factor_generator(build_rates(pair_table(net), omega_mhz)), p0, times)
    return msd(traj, net.positions, 0).msd_nm2


@pytest.mark.parametrize("n_p1", [100, 200, 400, 800])
def test_lanczos_msd_matches_dense_oracle(n_p1):
    # the criterion-3 box sizes, on the grid the adaptive probes chose
    curve, _ = average_msd(6.40, 1.575, n_p1, 3, seed=20 + n_p1)
    want = np.mean(
        [dense_msd(transport_network(1.575, n_p1, seed=20 + n_p1, realization=r), 6.40, curve.times_us) for r in range(3)],
        axis=0,
    )
    npt.assert_allclose(curve.msd_nm2, want, rtol=1e-10, atol=1e-10 * want.max())
    assert np.all(curve.basis_dims < n_p1 + 1)
    assert np.all(curve.basis_errors <= transport.LANCZOS_TOL)


def test_complete_lanczos_basis_is_exact():
    net = transport_network(1.575, 5, seed=2, realization=1)
    times = transport._default_time_grid(1e5)
    p0 = np.zeros(net.n_sites)
    p0[0] = 0.5
    basis = lanczos_basis(net, 6.40)
    got = basis.propagate(p0, times)
    assert basis.m == net.n_sites and basis.complete and basis.error == 0.0
    want = factor_generator(build_rates(pair_table(net), 6.40)).propagate(p0, times)
    npt.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_lanczos_basis_extends_for_a_longer_grid():
    net = transport_network(1.575, 200, seed=4, realization=0)
    p0 = np.zeros(net.n_sites)
    p0[0] = 1.0
    basis = lanczos_basis(net, 6.40)
    basis.propagate(p0, transport._default_time_grid(10.0))
    short = basis.m
    long_grid = transport._default_time_grid(1e5)
    got = basis.propagate(p0, long_grid)
    assert short < basis.m < net.n_sites
    fresh = lanczos_basis(net, 6.40)
    npt.assert_array_equal(got, fresh.propagate(p0, long_grid))
    assert fresh.m == basis.m


def test_lanczos_path_still_checks_conservation():
    # a generator with a leak but no relaxation vector breaks conservation
    net = transport_network(1.575, 20, seed=1, realization=0)
    leaky = lanczos_basis(net, 6.40).generator + 1e-2 * sparse_identity(net.n_sites)
    p0 = np.zeros(net.n_sites)
    p0[0] = 1.0
    with pytest.raises(ConservationError, match="drifted"):
        integrate_master_equation(LanczosBasis(leaky, 0), p0, np.array([0.0, 100.0]))


def test_lanczos_basis_propagates_only_its_source():
    net = transport_network(1.575, 20, seed=1, realization=0)
    p0 = np.zeros(net.n_sites)
    p0[1] = 1.0
    with pytest.raises(ValueError, match="source"):
        integrate_master_equation(lanczos_basis(net, 6.40), p0, np.array([0.0, 1.0]))
