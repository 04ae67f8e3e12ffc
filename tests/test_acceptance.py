"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single ``criterion N: PASS|FAIL`` line with the
measured numbers (visible with ``-rA`` or ``-s``) and then asserts, so
``pytest -v`` shows one verdict per criterion.  Workloads follow the
documented defaults; total runtime is a few minutes.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
from scipy.linalg import expm

from spinnet import clusterdyn, fitkit, network, protocol, spinops, transport
from spinnet.constants import TWO_PI
from spinnet.network import EnsembleSpec, Placement, Species
from spinnet.spinops import Frame, build_cluster_hamiltonian, operator_set
from test_clusterdyn import cluster


def report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_1_closed_form_chain():
    start = time.perf_counter()
    p_p1 = protocol.estimate_p1_polarization(0.143, 2.6, 0.75)
    temp_k = protocol.spin_temperature(0.074, 446.0)
    p_th = protocol.thermal_polarization(300.0, 446.0)
    gain = protocol.enhancement(0.074, p_th)
    elapsed = time.perf_counter() - start
    ok = (
        abs(p_p1 - 0.074) <= 0.001
        and abs(temp_k - 0.405) <= 0.005
        and abs(p_th - 1.0e-4) <= 5.0e-6
        and abs(gain - 740.0) <= 40.0
        and elapsed < 1.0
    )
    assert report(
        1, ok,
        f"P_p1={p_p1:.4f} T={temp_k * 1e3:.1f}mK p_th={p_th:.3e} gain={gain:.1f} ({elapsed:.3f}s)",
    )


@dataclass
class NeighborStats:
    d_nn_nm: float
    fraction_within: float


def nearest_neighbor_stats(density_ppm: float, radius_nm: float = 0.0) -> NeighborStats:
    """Poisson nearest-neighbor statistics at the given density.

    d_NN = Gamma(4/3) * (4 pi n / 3)^(-1/3) (= 0.55396 n^(-1/3)) and the
    probability of finding at least one neighbor within ``radius_nm``.
    """
    if density_ppm <= 0:
        raise ValueError("nearest-neighbor distance undefined at zero density")
    if radius_nm < 0:
        raise ValueError("radius must be nonnegative")
    n = network.ppm_to_density(density_ppm)
    d_nn = math.gamma(4.0 / 3.0) * (4.0 * math.pi * n / 3.0) ** (-1.0 / 3.0)
    fraction = 1.0 - math.exp(-(4.0 / 3.0) * math.pi * radius_nm**3 * n)
    return NeighborStats(d_nn_nm=d_nn, fraction_within=fraction)


def empirical_nearest_neighbor(net, margin_nm: float = 0.0) -> np.ndarray:
    """Per-site nearest-neighbor distances, restricted to interior sites.

    Sites closer than ``margin_nm`` to a box face are excluded as reference
    points (their true nearest neighbor may lie outside the box), but all
    sites count as candidate neighbors.
    """
    pos = net.positions
    if len(pos) < 2:
        return np.zeros(0)
    L = net.spec.box_nm
    interior = np.all((pos >= margin_nm) & (pos <= L - margin_nm), axis=1)
    if not np.any(interior):
        return np.zeros(0)
    diff = pos[interior][:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    dist[dist == 0] = np.inf
    return dist.min(axis=1)


def test_criterion_2_geometry_statistics():
    start = time.perf_counter()
    stats = nearest_neighbor_stats(0.6, 12.4)
    spec = EnsembleSpec(
        box_nm=100.0,
        densities_ppm={Species.NV: 0.6},
        placement=Placement.CONTINUUM,
        exclusion_nm=0.0,
    )
    dists = []
    for r in range(200):
        net = network.generate_network(spec, realization=r)
        dists.append(empirical_nearest_neighbor(net, margin_nm=25.0))
    dists = np.concatenate(dists)
    d_emp = float(dists.mean())
    frac_emp = float((dists <= 12.4).mean())
    elapsed = time.perf_counter() - start
    ok = (
        abs(stats.d_nn_nm - 11.7) <= 0.1
        and abs(stats.fraction_within - 0.57) <= 0.01
        and abs(d_emp - stats.d_nn_nm) <= 0.03 * stats.d_nn_nm
        and abs(frac_emp - stats.fraction_within) <= 0.03
        and elapsed < 60.0
    )
    assert report(
        2, ok,
        f"d_NN={stats.d_nn_nm:.2f}nm frac={stats.fraction_within:.3f} "
        f"empirical d={d_emp:.2f}nm frac={frac_emp:.3f} over {dists.size} sites ({elapsed:.1f}s)",
    )


def test_criterion_3_diffusion_pipeline():
    start = time.perf_counter()
    res = transport.diffusion_scaling(
        6.40,
        density_ppm=1.575,
        n_list=(100, 200, 400, 800),
        n_realizations=100,
        w_mhz=1.36,
        gamma_mhz=0.15,
        seed=0,
    )
    d_inf = res.extrapolation.d_inf_nm2_per_us
    ell = transport.diffusion_length(max(d_inf, 0.0), 30.0)
    elapsed = time.perf_counter() - start
    d_ok = 0.13 <= d_inf <= 0.33
    ell_ok = math.sqrt(6.0 * 0.13 * 30.0) <= ell <= math.sqrt(6.0 * 0.33 * 30.0)
    ok = d_ok and ell_ok and elapsed < 1200.0
    report(
        3, ok,
        f"D_inf={d_inf:.4f}+-{res.extrapolation.sigma:.4f} nm^2/us "
        f"(band [0.13, 0.33]) L_D(30us)={ell:.2f}nm ({elapsed:.0f}s)",
    )
    assert d_ok, (
        f"extrapolated D_inf = {d_inf:.4f} nm^2/us is outside [0.13, 0.33]; "
        f"per-size D_L = {[round(float(d), 4) for d in res.d_values]} at "
        f"L = {[round(float(L), 1) for L in res.box_sizes_nm]} nm"
    )
    assert ell_ok, f"diffusion length {ell:.2f} nm outside the propagated band"
    assert elapsed < 1200.0


def test_criterion_4_protocol_saturation():
    start = time.perf_counter()
    factory = lambda r: protocol.protocol_network(seed=0, realization=r)
    (res,) = protocol.run_iterative_protocol(
        factory, [protocol.CycleConfig(omega_mhz=6.40)], n_realizations=100
    )
    n_sat = res.saturation["tau"]
    _, _, cross = protocol.saturation_sweep(
        [protocol.CycleConfig(omega_mhz=o) for o in (0.5, 1.0, 2.0, 3.2, 6.4, 10.0, 20.0, 40.0)],
        n_realizations=100,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    ok = 2.0 <= n_sat <= 4.0 and 0.12 <= cross["a_inf"] <= 0.24 and elapsed < 900.0
    assert report(
        4, ok,
        f"N_sat={n_sat:.2f}+-{res.saturation.sigma('tau'):.2f} (band [2, 4]) "
        f"P_inf={cross['a_inf']:.4f}+-{cross.sigma('a_inf'):.4f} (band [0.12, 0.24]) ({elapsed:.0f}s)",
    )


def test_criterion_5_crossover_recovery():
    omegas = [0.5, 1.0, 2.0, 3.2, 6.4, 10.0]
    _, _, sim = protocol.saturation_sweep(
        [protocol.CycleConfig(omega_mhz=o) for o in omegas], n_realizations=30, seed=1
    )
    grid = np.linspace(0.5, 10.0, 25)
    clean = 0.179 * grid**2 / (grid**2 + 1.36**2)
    fit0 = protocol.fit_crossover(grid, clean)
    rng = np.random.default_rng(7)
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(grid.size))
    fitn = protocol.fit_crossover(grid, noisy)
    ok = (
        math.isfinite(sim["w"])
        and sim["w"] > 0
        and abs(fit0["w"] - 1.36) <= 1e-6
        and abs(fitn["w"] - 1.36) <= 0.2
    )
    assert report(
        5, ok,
        f"W_sim={sim['w']:.3f}MHz clean|dW|={abs(fit0['w'] - 1.36):.2e} "
        f"noisy W={fitn['w']:.3f}MHz",
    )


def test_criterion_6_cluster_dynamics_oracles():
    # (a) single bath spin: echo modulation is an exact cosine
    pair = cluster([[0, 0, 0], [10.0, 0, 0]], [Species.NV, Species.P1])
    tau = np.linspace(0.0, 20.0, 101)
    trace = clusterdyn.run_deer(lambda r: pair, tau, n_realizations=1, seed=0)
    cos_err = float(np.abs(trace.signal - np.cos(TWO_PI * math.sqrt(2) * 0.052 * tau)).max())

    # (b) mutually detuned bath couples only via Ising terms; without the
    # bath flip the echo refocuses exactly
    rng = np.random.default_rng(5)
    het = cluster(
        [[8, 8, 8]] + [rng.uniform(0, 16, 3) for _ in range(4)],
        [Species.NV] + [Species.P1] * 4,
        subgroup=range(5),
    )
    hahn = clusterdyn.run_deer(
        lambda r: het, np.linspace(0.0, 12.0, 25), n_realizations=3, bath_pi=False, seed=9,
    )
    hahn_err = float(np.abs(hahn.signal - 1.0).max())

    # (c) dressed generator vs full driven evolution at Omega = 50 |J|
    duo = cluster([[0, 0, 0], [10.0, 0, 0]], [Species.P1, Species.P1])
    lab = build_cluster_hamiltonian(duo, Frame.LAB_SECULAR)
    j = spinops._coupling_map(duo)[0, 1]
    omega = 50 * abs(j)
    ops = operator_set(2)
    h_lab = lab.matrix + omega * ops.total_sx
    h_dr = build_cluster_hamiltonian(duo, Frame.DRESSED).matrix
    x_up = np.array([1, 1]) / math.sqrt(2)
    x_dn = np.array([1, -1]) / math.sqrt(2)
    psi0 = np.kron(x_up, x_dn)
    state_err = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = frac * 2.0 / abs(j)
        psi_lab = expm(-1j * TWO_PI * h_lab * t) @ psi0
        psi_int = expm(+1j * TWO_PI * omega * t * ops.total_sx) @ psi_lab
        psi_dr = expm(-1j * TWO_PI * h_dr * t) @ psi0
        state_err = max(state_err, 1.0 - abs(np.vdot(psi_int, psi_dr)))

    # (d) dephasing rate is linear in density
    densities = [1.6, 3.2, 6.3, 12.6]
    fits = {
        d: clusterdyn.extract_dephasing_rate(
            clusterdyn.deer_trace(d, n_realizations=200, seed=11)
        )
        for d in densities + [2.4]
    }
    rates = [fits[d].rate_mhz for d in densities]
    r_squared = float(np.corrcoef(densities, rates)[0, 1] ** 2)

    # (e) rate ratio between 6.3 and 2.4 ppm tracks the density ratio
    ratio = fits[6.3].rate_mhz / fits[2.4].rate_mhz

    # (f) concentration pipeline closes on itself
    alpha = clusterdyn.calibrate_alpha(
        densities, rates, rate_sigmas=[fits[d].rate_sigma for d in densities]
    )
    # K for the usual P1 dip, which addresses 3 of the 12 lines
    k, k_sigma = 0.25 * alpha["slope"], 0.25 * alpha.sigma("slope")
    target = 6.3
    est = clusterdyn.estimate_concentration(k * target, 0.0, k, k_sigma, n_mc=20_000, seed=3)
    sigma_lin = target * k_sigma / k

    ok = (
        cos_err < 1e-6
        and hahn_err < 1e-10
        and state_err <= 0.02
        and r_squared > 0.95
        and abs(ratio - 2.6) <= 0.78
        and abs(est.mean_ppm - target) <= 0.05 * target
        and abs(est.sigma_ppm - sigma_lin) <= 0.10 * sigma_lin
    )
    assert report(
        6, ok,
        f"cos_err={cos_err:.1e} hahn_err={hahn_err:.1e} state_err={state_err:.4f} "
        f"R2={r_squared:.4f} ratio={ratio:.2f} round_trip={est.mean_ppm:.2f}ppm "
        f"sigma {est.sigma_ppm:.3f} vs {sigma_lin:.3f}",
    )


def test_criterion_7_conservation_and_fits():
    net = transport.transport_network(1.575, 60, seed=9, realization=0)
    rm = transport.build_rates(transport.pair_table(net), 6.40)
    p0 = np.zeros(len(net.positions))
    p0[0] = 1.0
    traj = transport.integrate_master_equation(transport.factor_generator(rm), p0, np.geomspace(0.1, 2e4, 25))
    cons_err = float(np.abs(traj.polarization.sum(axis=1) - 1.0).max())

    rate = 0.08
    rm2 = transport.RateMatrix(np.array([[0.0, rate], [rate, 0.0]]), cutoff_nm=60.0)
    times = np.linspace(0.0, 40.0, 17)
    traj2 = transport.integrate_master_equation(transport.factor_generator(rm2), np.array([1.0, 0.0]), times)
    two_site_err = float(
        np.abs(traj2.polarization[:, 0] - 0.5 * (1.0 + np.exp(-2.0 * rate * times))).max()
    )

    x = np.linspace(0.0, 12.0, 60)
    cases = [
        (fitkit.STRETCHED_EXP, (0.9, 2.5, 1.3)),
        (fitkit.EXP_SATURATION, (0.7, 3.0)),
        (fitkit.LORENTZIAN, (5.0, 1.2, 2.0, 0.3)),
        (fitkit.DAMPED_COSINE, (1.0, 0.8, 0.4, 6.0, 0.1)),
    ]
    fit_err = 0.0
    for model, truth in cases:
        res = fitkit.fit(model, x, model.func(x, *truth))
        fit_err = max(
            fit_err,
            max(abs(res[n] - t) / max(abs(t), 1e-9) for n, t in zip(model.param_names, truth)),
        )

    rng = np.random.default_rng(21)
    pulls = []
    for _ in range(150):
        y = fitkit.EXP_SATURATION.func(x, 0.7, 3.0) + 0.02 * rng.standard_normal(x.size)
        res = fitkit.fit(fitkit.EXP_SATURATION, x, y, sigma=np.full(x.size, 0.02))
        pulls.append((res["amp"] - 0.7) / res.sigma("amp"))
    pull_sd = float(np.std(pulls))

    ok = (
        cons_err < 1e-6
        and two_site_err < 1e-6
        and fit_err < 1e-6
        and 0.6 < pull_sd < 1.5
    )
    assert report(
        7, ok,
        f"conservation={cons_err:.1e} two_site={two_site_err:.1e} "
        f"round_trip={fit_err:.1e} pull_sd={pull_sd:.2f}",
    )


def test_criterion_8_readout_equilibration():
    net = protocol.protocol_network(seed=0, realization=0)
    config = protocol.CycleConfig(omega_mhz=6.40)
    plus = protocol.readout_equilibration(lambda r: net, config, 1, p_p1=0.074)
    minus = protocol.readout_equilibration(lambda r: net, config, 1, p_p1=-0.074)
    asym = float(np.abs(plus.delta_c + minus.delta_c).max())
    bound = 430.0 / 50.0
    ok = plus.fit["tau"] < bound and asym < 1e-12
    assert report(
        8, ok,
        f"tau_eq={plus.fit['tau']:.2f}us (< {bound:.1f}) antisymmetry={asym:.1e}",
    )
