import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinnet import clusterdyn, experiments, fitkit, protocol, transport
from spinnet.constants import TWO_PI
from run_settings import resolved


def test_stretched_exp_round_trip():
    t = np.linspace(0, 40, 80)
    y = 0.9 * np.exp(-((t / 12.0) ** 1.4))
    res = fitkit.fit(fitkit.STRETCHED_EXP, t, y)
    assert res.converged
    assert res["amp"] == pytest.approx(0.9, rel=1e-5)
    assert res["t2"] == pytest.approx(12.0, rel=1e-5)
    assert res["beta"] == pytest.approx(1.4, rel=1e-5)


def test_exp_saturation_round_trip():
    n = np.arange(0, 13, dtype=float)
    y = 3.2 * (1 - np.exp(-n / 2.9))
    res = fitkit.fit(fitkit.EXP_SATURATION, n, y)
    assert res["amp"] == pytest.approx(3.2, rel=1e-6)
    assert res["tau"] == pytest.approx(2.9, rel=1e-6)


def test_lorentzian_dip_round_trip():
    x = np.linspace(2800, 2940, 120)
    y = 1.0 - 0.4 * 8.0**2 / ((x - 2870.0) ** 2 + 8.0**2)
    res = fitkit.fit(fitkit.LORENTZIAN, x, y)
    assert res["center"] == pytest.approx(2870.0, abs=1e-3)
    assert res["hwhm"] == pytest.approx(8.0, rel=1e-4)
    assert res["amp"] == pytest.approx(-0.4, rel=1e-4)
    assert res["offset"] == pytest.approx(1.0, rel=1e-5)


def test_damped_cosine_round_trip():
    t = np.linspace(0, 3, 400)
    y = 0.1 + 0.8 * np.cos(TWO_PI * 6.4 * t + 0.5) * np.exp(-t / 5.0)
    res = fitkit.fit(fitkit.DAMPED_COSINE, t, y)
    assert res["freq"] == pytest.approx(6.4, rel=1e-6)
    assert res["phase"] == pytest.approx(0.5, abs=1e-5)
    assert res["tau"] == pytest.approx(5.0, rel=1e-3)


def test_underdetermined_raises():
    with pytest.raises(fitkit.FitError):
        fitkit.fit(fitkit.STRETCHED_EXP, [0.0, 1.0], [1.0, 0.5])


def test_fit_that_never_leaves_its_start_is_not_converged():
    # an averaged echo is exactly 1 at t = 0 in every realization, so its SEM
    # there is rounding (~6e-17): that weight stops the solver on its first step
    t = np.linspace(0.0, 8.0 / 6.3, 48)
    y = np.exp(-t / 0.4) + np.random.default_rng(2).normal(0.0, 0.009, t.size)
    y[0] = 1.0
    sem = np.full(t.size, 0.009)
    spec = fitkit.STRETCHED_EXP
    start = np.clip(spec.guess(t, y), spec.lower, spec.upper)
    stalled = fitkit.fit(spec, t, y, sigma=np.concatenate([[6e-17], sem[1:]]))
    assert np.array_equal(stalled.params, start)
    assert not stalled.converged
    moved = fitkit.fit(spec, t, y, sigma=sem)
    assert moved.converged and not np.array_equal(moved.params, start)


def test_csv_text():
    text = fitkit.csv_text(("t", "y"), [0, 0.1], np.array([1 / 3, -2.5e-300]))
    assert text == "t,y\n0.0,0.3333333333333333\n0.1,-2.5e-300\n"
    assert fitkit.csv_text(("t",), []) == "t\n"
    with pytest.raises(ValueError):
        fitkit.csv_text(("t", "y"), [0.0])
    with pytest.raises(ValueError):
        fitkit.csv_text(("t", "y"), [0.0, 1.0], [0.0])


def test_fit_invariant_under_reordering():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 30, 60)
    y = np.exp(-t / 10.0) + rng.normal(0, 0.01, t.size)
    perm = rng.permutation(t.size)
    a = fitkit.fit(fitkit.STRETCHED_EXP, t, y)
    b = fitkit.fit(fitkit.STRETCHED_EXP, t[perm], y[perm])
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.covariance, b.covariance)


def test_linear_fit_exact_and_through_origin():
    x = np.array([1.0, 2.0, 5.0, 7.0])
    res = fitkit.linear_fit(x, 3.0 * x - 1.5)
    assert res["slope"] == pytest.approx(3.0, rel=1e-12)
    assert res["intercept"] == pytest.approx(-1.5, rel=1e-12)
    res0 = fitkit.linear_fit(x, 2.5 * x, through_origin=True)
    assert res0["slope"] == pytest.approx(2.5, rel=1e-12)
    assert res0.param_names == ("slope",)


def test_linear_fit_point_count_errors():
    with pytest.raises(fitkit.FitError, match="free intercept needs at least 2 points"):
        fitkit.linear_fit([1.0], [2.0])
    with pytest.raises(fitkit.FitError, match="not enough points"):
        fitkit.linear_fit([], [])
    with pytest.raises(fitkit.FitError, match="not enough points"):
        fitkit.linear_fit([], [], through_origin=True)
    assert fitkit.linear_fit([2.0], [3.0], through_origin=True)["slope"] == 1.5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=12, unique=True),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
@example(xs=[0.0, 9.110021238944627e-244, 2.2250738585072014e-308], slope=0.0, intercept=0.0)
@example(xs=[0.0, 1e-308, 1e-254], slope=1.5, intercept=1.0)
@example(xs=[0.0, 2.22e-16, 1.28e-125], slope=1.5, intercept=1.0)
def test_linear_fit_recovers_any_line(xs, slope, intercept):
    x = np.asarray(xs)
    y = slope * x + intercept
    res = fitkit.linear_fit(x, y)
    # Rounding y moves each ordinate by up to dy, which moves the exact
    # least-squares line by up to dslope and dintercept.  When the spread of
    # x is below the rounding of y the data no longer carry the slope.  The
    # bound is formed in the centred, scaled abscissa u so that it neither
    # underflows nor becomes NaN.
    dy = 2.0 * np.finfo(float).eps * np.max(np.abs(y)) + 2.0 * np.finfo(float).smallest_subnormal
    xbar = float(np.mean(x))
    scale = float(np.max(np.abs(x - xbar)))
    u = (x - xbar) / scale
    lever = dy * np.sum(np.abs(u)) / np.sum(u * u)
    dslope = lever / scale
    dintercept = dy + abs(xbar) / scale * lever
    assert res["slope"] == pytest.approx(slope, abs=1e-7 + dslope)
    assert res["intercept"] == pytest.approx(intercept, abs=1e-7 + dintercept)


def test_linear_coverage_with_known_noise():
    rng = np.random.default_rng(11)
    x = np.linspace(0, 10, 25)
    hits = 0
    trials = 200
    for _ in range(trials):
        y = 1.7 * x + 0.3 + rng.normal(0, 0.2, x.size)
        res = fitkit.linear_fit(x, y, sigma=np.full(x.size, 0.2))
        if abs(res["slope"] - 1.7) < 1.96 * res.sigma("slope"):
            hits += 1
    # binomial 95% band around 0.95 for 200 trials
    assert 0.89 <= hits / trials <= 1.0


def test_nonlinear_coverage_with_known_noise():
    rng = np.random.default_rng(12)
    t = np.linspace(0, 30, 60)
    model = np.exp(-t / 10.0)
    hits = 0
    trials = 150
    for _ in range(trials):
        y = model + rng.normal(0, 0.01, t.size)
        res = fitkit.fit(fitkit.STRETCHED_EXP, t, y, sigma=np.full(t.size, 0.01))
        if abs(res["t2"] - 10.0) < 1.96 * res.sigma("t2"):
            hits += 1
    assert 0.88 <= hits / trials <= 1.0


def test_fft_peak_pure_cosine():
    dt = 0.01
    t = np.arange(0, 512) * dt
    freqs, mag = fitkit.fft_spectrum(np.cos(TWO_PI * 6.40 * t), dt)
    df = freqs[1] - freqs[0]
    peak = fitkit.spectrum_peak(freqs, mag)
    assert peak == pytest.approx(6.40, abs=df)


def test_fft_flat_trace_has_no_positive_peak():
    dt = 0.05
    freqs, mag = fitkit.fft_spectrum(np.full(256, 0.7), dt)
    # all content sits in the zero-frequency bin
    assert mag[0] > 0
    assert np.all(mag[1:] < 1e-9 * mag[0])
    assert fitkit.spectrum_peak(freqs, mag) is None


def test_reduce_mean_sem_shuffle_invariant():
    rng = np.random.default_rng(7)
    vals = rng.normal(0.3, 1.1, 500)
    m1, s1 = fitkit.reduce_mean_sem(vals[:, None])
    m2, s2 = fitkit.reduce_mean_sem(vals[rng.permutation(500)][:, None])
    assert m1 == m2 and s1 == s2
    assert s1 == pytest.approx(1.1 / math.sqrt(500), rel=0.15)


def test_sem_scales_with_sample_count():
    rng = np.random.default_rng(9)
    vals = rng.normal(0, 1, 4000)
    _, s_all = fitkit.reduce_mean_sem(vals[:, None])
    _, s_quarter = fitkit.reduce_mean_sem(vals[:1000, None])
    assert s_quarter / s_all == pytest.approx(2.0, rel=0.2)


def test_reduce_mean_sem_by_column():
    rng = np.random.default_rng(11)
    runs = rng.normal(0.3, 1.1, (200, 7))
    mean, sem = fitkit.reduce_mean_sem(runs)
    assert mean.shape == sem.shape == (7,)
    for k in range(7):
        mk, sk = fitkit.reduce_mean_sem(runs[:, [k]])
        assert (mean[k], sem[k]) == (mk[0], sk[0])
    m2, s2 = fitkit.reduce_mean_sem(runs[rng.permutation(200)])
    assert np.array_equal(mean, m2) and np.array_equal(sem, s2)
    with pytest.raises(fitkit.FitError):
        fitkit.reduce_mean_sem(np.empty((0, 3)))


def test_data_whose_squares_underflow_are_refused():
    # every residual of a 1e-250 trace squares to 0: the fit would stop on
    # its start point as an exact fit with zero uncertainty
    n = np.arange(1, 9, dtype=float)
    with pytest.raises(fitkit.FitError, match="too small to fit"):
        fitkit.fit(fitkit.EXP_SATURATION, n, 1e-250 * (1 - np.exp(-n / 3)))
    assert fitkit.fit(fitkit.EXP_SATURATION, n, np.zeros_like(n)).params.size == 2


# The two fitters, which hold the one error-bar rule, and every site that
# passes them realization error bars: site -> (a function of the error
# bars, None for the unweighted fit, that returns the fitted parameters;
# positive error bars; the index set to zero)
T = np.linspace(0.0, 4.0, 24)
DECAY = np.exp(-((T / 1.3) ** 0.9)) + 0.01 * np.sin(7 * T)
CYCLES = np.arange(1, 13, dtype=float)
BUILDUP = 0.12 * (1 - np.exp(-CYCLES / 2.7)) + 0.002 * np.cos(3 * CYCLES)
OMEGAS = np.array([0.5, 1.0, 2.0, 3.2, 6.4, 10.0])
P_SAT = 0.18 * OMEGAS**2 / (OMEGAS**2 + 1.9**2) + 0.003 * np.sin(OMEGAS)
X = np.array([0.5, 1.1, 2.0, 2.9, 4.2, 5.0])
LINE = 0.8 * X + 0.3 + 0.05 * np.sin(5 * X)


def _with_zero(sigma, k):
    sigma = np.array(sigma, dtype=float)
    sigma[k] = 0.0
    return sigma


def _fit(sigma, monkeypatch):
    return fitkit.fit(fitkit.STRETCHED_EXP, T, DECAY, sigma=sigma).params


def _linear_fit(sigma, monkeypatch):
    return fitkit.linear_fit(X, LINE, sigma=sigma).params


def _run_fit(sem, monkeypatch):
    # the table `run fit` reads, written in the working directory
    columns = (CYCLES, BUILDUP) if sem is None else (CYCLES, BUILDUP, sem)
    names = ("cycle", "p_p1") if sem is None else ("cycle", "p_p1", "p_p1_sem")
    with open("data.csv", "w") as fh:
        fh.write(fitkit.csv_text(names, *columns))
    config = resolved("fit", params={"model": "exp_saturation", "data_csv": "data.csv"})
    return np.array(list(experiments._run_fit(config)[1]["params"].values()))


def _dephasing(sem, monkeypatch):
    sem = np.zeros_like(T) if sem is None else sem
    return clusterdyn.extract_dephasing_rate(clusterdyn.TraceResult(T, DECAY, sem)).params


def _saturation(sem, monkeypatch):
    return protocol.fit_saturation(CYCLES, BUILDUP, sem=sem).params


def _crossover(sigma, monkeypatch):
    if sigma is None:
        return protocol.fit_crossover(OMEGAS, P_SAT).params
    # saturation fits that report A_sat = amp with its sigma
    saturation = lambda a, s: fitkit.FitResult(("amp", "tau"), np.array([a, 1.0]), np.array([s, 0.0]), np.zeros((2, 2)), 0.0, True, 0)
    results = [SimpleNamespace(saturation=saturation(a, s)) for a, s in zip(P_SAT, sigma)]
    monkeypatch.setattr(protocol, "run_iterative_protocol", lambda factory, configs, n_realizations: results)
    summary = experiments._run_crossover(resolved("crossover", params={"omegas_mhz": OMEGAS.tolist()}))[1]
    return np.array([summary["A_inf"], summary["W_MHz"]])


def _diffusion_window(sem, monkeypatch):
    times = np.linspace(0.0, 2000.0, 41)
    curve = 6.0 * 0.01 * times + 30.0 * np.sin(times / 90.0) + 150.0
    msd = transport.MsdCurve(times, curve, sem_nm2=sem)
    return transport.extract_diffusion(msd, 10.0, 100.0).params


def _diffusion_scaling(sigma, monkeypatch):
    boxes = [50.0, 70.0, 90.0, 110.0]
    # the window fits' slopes, 6 D_L
    slopes = [0.0720, 0.0624, 0.0606, 0.0582]
    if sigma is None:
        return transport.finite_size_extrapolate(boxes, [s / 6.0 for s in slopes]).params
    curve = transport.MsdCurve(T, T, basis_dims=np.ones(2), basis_errors=np.zeros(2))
    monkeypatch.setattr(transport, "_msd_curves", lambda *args: [(curve, box) for box in boxes])
    # window fits that report D_L = slope / 6 with sigma
    window = lambda slope, s: fitkit.FitResult(("slope", "intercept"), np.array([slope, 0.0]), np.array([6.0 * s, 0.0]), np.zeros((2, 2)), 0.0, True, 0)
    fits = iter(zip(slopes, sigma))
    monkeypatch.setattr(transport, "extract_diffusion", lambda curve, d_avg, box: window(*next(fits)))
    scaling = transport.diffusion_scaling(
        6.4, density_ppm=1.575, n_list=(100, 200, 400, 800), n_realizations=2, w_mhz=1.36
    )
    return scaling.extrapolation.params


def _calibration(sigma, monkeypatch):
    return clusterdyn.calibrate_alpha([1.6, 3.2, 6.3, 12.6], [0.61, 1.33, 2.49, 5.12], rate_sigmas=sigma).params


FIT_SITES = {
    "fit": (_fit, np.full(T.size, 0.02), 5),
    "linear_fit": (_linear_fit, np.full(X.size, 0.05), 4),
    "run_fit": (_run_fit, np.full(CYCLES.size, 0.004), 3),
    "extract_dephasing_rate": (_dephasing, np.full(T.size, 0.02), 5),
    "fit_saturation": (_saturation, np.full(CYCLES.size, 0.004), 0),
    "crossover": (_crossover, np.full(OMEGAS.size, 0.006), 2),
    "extract_diffusion": (_diffusion_window, np.full(41, 4.0), 12),
    "diffusion_scaling": (_diffusion_scaling, [4e-4, 3e-4, 2e-4, 1e-4], 1),
    "calibrate_alpha": (_calibration, [0.05, 0.08, 0.1, 0.2], 3),
}


@pytest.mark.parametrize("site", FIT_SITES)
def test_one_zero_error_bar_gives_the_unweighted_fit(site, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    fn, sigma, k = FIT_SITES[site]
    fit = lambda s: fn(s, monkeypatch)
    unweighted = fit(None)
    assert np.array_equal(fit(_with_zero(sigma, k)), unweighted)
    # and the error bars do weight the fit when every one is positive
    assert not np.array_equal(fit(np.asarray(sigma, dtype=float) * np.linspace(1.0, 3.0, len(sigma))), unweighted)


@pytest.mark.parametrize("fitter", ["fit", "linear_fit"])
@pytest.mark.parametrize("change", [-1, 1])
def test_error_bars_of_another_length_are_refused(fitter, change, monkeypatch):
    fn, sigma, _ = FIT_SITES[fitter]
    # one entry short, or one extra, never reaches the solver
    wrong = np.full(len(sigma) + change, sigma[0])
    with pytest.raises(fitkit.FitError, match="entries for"):
        fn(wrong, monkeypatch)


@pytest.mark.parametrize(
    "site, bad",
    [("fit_saturation", math.nan), ("fit_saturation", -1.0), ("calibrate_alpha", math.nan),
     ("calibrate_alpha", -1.0), ("linear_fit", math.nan)],
)
def test_a_nan_or_negative_error_bar_is_refused(site, bad, monkeypatch):
    fn, sigma, k = FIT_SITES[site]
    spoilt = np.array(sigma, dtype=float)
    spoilt[k] = bad
    with pytest.raises(fitkit.FitError, match="NaN or negative"):
        fn(spoilt, monkeypatch)
