"""The experiments of ``spinnet run`` and the presets of ``spinnet reproduce``.

A preset is a set of ``run`` configs, executed by the same runners as
``run``, plus its comparison rows; only ``closed-form-chain`` and
``fig-2c``, which no experiment covers, call the physics themselves.
Every runner reads a config as :func:`spinnet.cli.resolve_config` returns
it, with each default of the schema filled in, and every preset resolves
the configs it runs: ``fig-2c`` reads its networks and cycle from the
resolved ``protocol`` config and records it as ``readout_config``.  This
module loads numpy and the physics modules; ``spinnet.cli`` imports it
only when a command computes.  It alone lays out every artifact and run
record: the physics modules return numbers, and the runners here name the
artifacts, CSV columns, JSON keys and manifest-only records; it is the
only caller in ``src/`` of :func:`spinnet.fitkit.csv_text`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from typing import Optional

import numpy as np

from . import ConfigError, clusterdyn, fitkit, protocol, transport
from .cli import resolve_config
from .network import GenerationError, Placement

_NUMERIC_ERRORS = (
    ArithmeticError,  # overflow, e.g. a mode decay past the largest float
    fitkit.FitError,
    transport.WindowError,
    transport.ConservationError,
    GenerationError,
    np.linalg.LinAlgError,
)


def _fit_tail(res: fitkit.FitResult) -> dict:
    """The ``converged``/``nfev`` pair that ends every summary of a fitted number."""
    return {"converged": res.converged, "nfev": res.iterations}


def _trace_csv(trace: clusterdyn.TraceResult) -> str:
    """The CSV of a ``deer``, ``hahn`` or ``rabi`` trace."""
    return fitkit.csv_text(("abscissa_us", "signal", "sem"), trace.abscissa_us, trace.signal, trace.sem)


def _trajectory_csv(res: protocol.ProtocolResult) -> str:
    """cycle,p_nv,p_p1, plus the two SEM columns when more than one realization was run."""
    sem = (res.p_nv_sem, res.p_p1_sem) if res.n_realizations > 1 else ()
    names = ("cycle", "p_nv", "p_p1", "p_nv_sem", "p_p1_sem")[: 3 + len(sem)]
    return fitkit.csv_text(names, res.cycles, res.p_nv, res.p_p1, *sem)


def _deer_config(density: float, seed: int, realizations: int) -> dict:
    """The resolved ``deer`` config at one bath density, every other field at its default."""
    network = {"densities_ppm": {"P1": density}}
    return resolve_config({"experiment": "deer", "seed": seed, "realizations": realizations, "network": network})


def _echo_trace(config: dict, bath_pi: bool) -> tuple:
    """(density, trace) of the echo that ``deer`` and ``hahn`` run."""
    network = config["network"]
    density = network["densities_ppm"]["P1"]
    trace = clusterdyn.deer_trace(
        density,
        n_realizations=config["realizations"],
        n_bath=config["params"]["n_bath"],
        seed=config["seed"],
        bath_pi=bath_pi,
        placement=Placement(network["placement"]),
    )
    return density, trace


def _run_deer(config: dict) -> tuple:
    density, trace = _echo_trace(config, config["params"]["bath_pi"])
    fit = clusterdyn.extract_dephasing_rate(trace)
    t2 = fit["t2"]
    # the dephasing rate is 1/T2, its sigma sigma_T2/T2^2
    summary = {
        "density_ppm": density,
        "rate_mhz": 1.0 / t2,
        "rate_sigma": fit.sigma("t2") / t2**2,
        "mean_field_rate_mhz": clusterdyn.mean_field_deer_rate(density),
        "t2_us": t2,
        "beta": fit["beta"],
        **_fit_tail(fit),
    }
    return {"deer_trace.csv": _trace_csv(trace), "deer_fit.json": json.dumps(summary, indent=2)}, summary, {}


def _run_hahn(config: dict) -> tuple:
    density, trace = _echo_trace(config, False)
    summary = {
        "density_ppm": density,
        "max_refocus_deviation": float(np.max(np.abs(trace.signal - 1.0))),
    }
    return {"hahn_trace.csv": _trace_csv(trace), "hahn_summary.json": json.dumps(summary, indent=2)}, summary, {}


def _run_rabi(config: dict) -> tuple:
    p = config["params"]
    omega, detuning = p["omega_mhz"], p["detuning_mhz"]
    grid = np.linspace(0.0, p["t_max_us"], p["n_points"])
    trace = clusterdyn.run_rabi(omega, grid, detuning_mhz=detuning)
    peak = clusterdyn.fft_peak(trace)
    summary = {
        "omega_mhz": omega,
        "detuning_mhz": detuning,
        "peak_mhz": peak,
        "expected_mhz": float(np.hypot(omega, detuning)),
    }
    return {"rabi_trace.csv": _trace_csv(trace), "rabi_summary.json": json.dumps(summary, indent=2)}, summary, {}


def _run_diffusion(config: dict) -> tuple:
    p, network = config["params"], config["network"]
    omega = p["omega_mhz"]
    res = transport.diffusion_scaling(
        omega,
        density_ppm=network["densities_ppm"]["P1"],
        n_list=tuple(p["n_list"]),
        n_realizations=config["realizations"],
        w_mhz=network["disorder_mhz"],
        seed=config["seed"],
    )
    # D_inf is the extrapolation's intercept
    d_inf, d_inf_sigma = res.extrapolation["intercept"], res.extrapolation.sigma("intercept")
    summary = {
        "omega_MHz": omega,
        "D_inf_nm2_per_us": d_inf,
        "D_inf_sigma": d_inf_sigma,
        "diffusion_length_30us_nm": transport.diffusion_length(max(d_inf, 0.0), 30.0),
    }
    columns = {"L_nm": res.box_sizes_nm, "D_L": res.d_values, "D_L_sigma": res.d_sigmas}
    artifacts = {
        "diffusion_scaling.csv": fitkit.csv_text(("L_nm", "D_L_nm2_per_us", "sigma"), *columns.values()),
        # compact, unlike every other JSON artifact
        "diffusion_summary.json": json.dumps({"omega_MHz": omega, **columns, "D_inf": d_inf, "sigma": d_inf_sigma}),
    }
    # the manifest's record: per box size, the range of Lanczos basis
    # dimensions and the largest final error estimate
    lanczos = [
        {"n_p1": n_p1, "basis_dim_range": [int(dims.min()), int(dims.max())], "error_estimate_max": float(errors.max())}
        for n_p1, dims, errors in zip(p["n_list"], res.basis_dims, res.basis_errors)
    ]
    return artifacts, summary, {"lanczos": lanczos}


_CYCLE_FIELDS = {f.name for f in dataclasses.fields(protocol.CycleConfig)} - {"omega_mhz"}


def _protocol_config(p: dict, omega: float) -> protocol.CycleConfig:
    """The CycleConfig at drive ``omega``, every other field from the resolved ``params``."""
    return protocol.CycleConfig(omega_mhz=omega, **{k: p[k] for k in _CYCLE_FIELDS})


def _protocol_factory(config: dict):
    """The network factory of a resolved ``protocol`` or ``crossover`` config."""
    n_p1, w, seed = config["params"]["n_p1"], config["network"]["disorder_mhz"], config["seed"]
    return lambda r: protocol.protocol_network(n_p1=n_p1, w_mhz=w, seed=seed, realization=r)


def _run_protocol(config: dict) -> tuple:
    omega = config["params"]["omega_mhz"]
    cycle = _protocol_config(config["params"], omega)
    (res,) = protocol.run_iterative_protocol(_protocol_factory(config), [cycle], config["realizations"])
    sat = res.saturation
    # P_sat is the saturation fit's amp, N_sat its tau
    summary = {
        "omega_MHz": omega,
        "P_sat": sat["amp"],
        "P_sat_sigma": sat.sigma("amp"),
        "N_sat": sat["tau"],
        "N_sat_sigma": sat.sigma("tau"),
        "n_realizations": res.n_realizations,
        **_fit_tail(sat),
    }
    artifacts = {"protocol_trajectory.csv": _trajectory_csv(res), "protocol_summary.json": json.dumps(summary, indent=2)}
    return artifacts, summary, {}


def _run_crossover(config: dict) -> tuple:
    p = config["params"]
    omegas = p["omegas_mhz"]
    # one run over every drive, so that each network is built once and serves them all
    cycles = [_protocol_config(p, float(o)) for o in omegas]
    results = protocol.run_iterative_protocol(_protocol_factory(config), cycles, config["realizations"])
    p_sat = np.array([res.saturation["amp"] for res in results])
    p_sig = np.array([res.saturation.sigma("amp") for res in results])
    cross = protocol.fit_crossover(np.array(omegas, dtype=float), p_sat, sigma=fitkit.fit_sigma(p_sig))
    # A_inf and W are the crossover fit's a_inf and w
    summary = {
        "omegas_MHz": list(map(float, omegas)),
        "P_sat": list(map(float, p_sat)),
        "A_inf": cross["a_inf"],
        "A_inf_sigma": cross.sigma("a_inf"),
        "W_MHz": cross["w"],
        "W_sigma": cross.sigma("w"),
        **_fit_tail(cross),
    }
    table = fitkit.csv_text(("omega_MHz", "P_sat", "P_sat_sigma"), omegas, p_sat, p_sig)
    return {"crossover_table.csv": table, "crossover_summary.json": json.dumps(summary, indent=2)}, summary, {}


def _run_concentration(config: dict) -> tuple:
    p = config["params"]
    densities, seed = p["calibration_densities_ppm"], config["seed"]
    fits = [_run_deer(_deer_config(d, seed, config["realizations"]))[1] for d in densities]
    rates = [fit["rate_mhz"] for fit in fits]
    sigmas = [fit["rate_sigma"] for fit in fits]
    calibration = clusterdyn.calibrate_alpha(densities, rates, rate_sigmas=sigmas)
    alpha, alpha_sigma = calibration["slope"], calibration.sigma("slope")
    # K: the dephasing per addressed spectral group at 1 ppm total density
    fraction = p["addressed_fraction"]
    k, k_sigma = alpha * fraction, alpha_sigma * fraction
    est = clusterdyn.estimate_concentration(
        p["gamma_exp_mhz"], p["gamma_sigma_mhz"], k, k_sigma, n_mc=p["n_mc"], seed=seed
    )
    summary = {
        "alpha_mhz_per_ppm": alpha,
        "alpha_sigma": alpha_sigma,
        "K_mhz_per_group_ppm": k,
        "K_sigma": k_sigma,
        "density_ppm": est.mean_ppm,
        "density_sigma_ppm": est.sigma_ppm,
        "rejection_warning": est.rejection_warning,
    }
    return {"concentration_summary.json": json.dumps(summary, indent=2)}, summary, {}


_FIT_MODELS = {
    m.name: m
    for m in (fitkit.STRETCHED_EXP, fitkit.EXP_SATURATION, fitkit.LORENTZIAN, fitkit.DAMPED_COSINE, protocol.CROSSOVER)
}


def _run_fit(config: dict) -> tuple:
    p = config["params"]
    model_name, p0 = p["model"], p["p0"]
    model = _FIT_MODELS[model_name]
    if p0 is not None and len(p0) != len(model.param_names):
        raise ConfigError(
            f"config field params/p0: {len(p0)} values for the {len(model.param_names)} "
            f"parameters {list(model.param_names)} of {model_name}"
        )
    # cli.validate_config has checked that the file exists
    path = p["data_csv"]
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # a table without data rows is refused below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as err:
        # a directory, an unreadable file or a cell that is not a number
        raise ConfigError(f"config field params/data_csv: {err}") from err
    if data.shape[0] == 0:
        raise ConfigError("config field params/data_csv: no data rows below the header")
    if not np.all(np.isfinite(data)):
        raise ConfigError("config field params/data_csv: a cell is nan or infinite")
    if data.shape[1] < 2:
        raise ConfigError("config field params/data_csv: need at least x,y columns")
    if data.shape[1] > 3:
        # a wider table, e.g. a protocol trajectory, has no one x,y,sigma reading
        raise ConfigError(
            f"config field params/data_csv: {data.shape[1]} columns; the fit reads x,y[,sigma]"
        )
    sigma = None
    if data.shape[1] == 3:
        # a third column is an error bar only by name, e.g. not a trajectory's p_p1
        name = header[-1].strip()
        if name not in ("sem", "sigma") and not name.endswith(("_sem", "_sigma")):
            raise ConfigError(
                f"config field params/data_csv: third column {name!r} is not a sem or sigma column"
            )
        sigma = data[:, 2]
        if np.any(sigma < 0):
            raise ConfigError("config field params/data_csv: a sigma cell is negative")
    # a zero error bar (a noiseless or one-realization trace, a point every
    # realization agrees on) leaves the fit unweighted
    res = fitkit.fit(model, data[:, 0], data[:, 1], sigma=fitkit.fit_sigma(sigma), p0=p0)
    summary = {
        "model": model_name,
        "params": {k: res[k] for k in res.param_names},
        "sigmas": {k: res.sigma(k) for k in res.param_names},
        "residual_norm": res.residual_norm,
        "converged": res.converged,
    }
    return {"fit_report.json": json.dumps(summary, indent=2)}, summary, {}


# each runner returns (artifacts, the summary printed to the terminal,
# diagnostics that go into the manifest only)
_EXPERIMENTS = {
    "deer": _run_deer,
    "rabi": _run_rabi,
    "hahn": _run_hahn,
    "diffusion": _run_diffusion,
    "protocol": _run_protocol,
    "crossover": _run_crossover,
    "concentration": _run_concentration,
    "fit": _run_fit,
}


def _row(quantity: str, simulated: str, target: str, within: Optional[bool], *converged: bool) -> tuple:
    """A comparison row (quantity, simulated, target, within); when a fit
    behind its number did not converge, the row is not judged and its value
    says the fit stalled."""
    if all(converged):
        return quantity, simulated, target, within
    return quantity, f"{simulated} (fit stalled)", target, None


# each preset maps (realizations, seed) to (the resolved `run` configs it executed
# through their experiments' runners, artifacts, comparison rows,
# manifest-only diagnostics)
def _closed_form_chain(realizations: int, seed: int) -> tuple:
    p_p1 = protocol.estimate_p1_polarization(0.143, 2.625, 0.75)
    t_spin = protocol.spin_temperature(0.074, 446.0)
    p_th = protocol.thermal_polarization(300.0, 446.0)
    gain = protocol.enhancement(0.074, p_th)
    rows = [
        _row("P_p1 from contrast", f"{p_p1:.4f}", "0.074 +- 0.001", abs(p_p1 - 0.074) < 1e-3),
        _row("spin temperature (K)", f"{t_spin:.4f}", "0.405 +- 0.005", abs(t_spin - 0.405) < 5e-3),
        _row("thermal polarization", f"{p_th:.6f}", "1.0e-4 +- 5e-6", abs(p_th - 1.0e-4) < 5e-6),
        _row("enhancement", f"{gain:.1f}", "740 +- 40", abs(gain - 740.0) < 40.0),
    ]
    summary = {"p_p1": p_p1, "t_spin_K": t_spin, "p_thermal": p_th, "enhancement": gain}
    return [], {"closed_form_chain.json": json.dumps(summary, indent=2)}, rows, {}


def _fig_s2(realizations: int, seed: int) -> tuple:
    """Echo-decay rate versus bath density and the density-ratio check: ``deer`` per density."""
    densities = [2.4, 6.3]
    configs = [_deer_config(d, seed, realizations) for d in densities]
    runs = [_run_deer(config) for config in configs]
    fits = {str(d): summary for d, (_, summary, _) in zip(densities, runs)}
    ratio = fits["6.3"]["rate_mhz"] / fits["2.4"]["rate_mhz"]
    rows = [
        _row("decay rate 6.3 ppm (MHz)", f"{fits['6.3']['rate_mhz']:.3f}", "density-scaled", None, fits["6.3"]["converged"]),
        _row(
            "rate ratio 6.3/2.4", f"{ratio:.2f}", "2.63 +- 30%", abs(ratio - 2.625) < 0.3 * 2.625,
            *(fit["converged"] for fit in fits.values()),
        ),
    ]
    artifacts = {f"deer_trace_{d:g}ppm.csv": art["deer_trace.csv"] for d, (art, _, _) in zip(densities, runs)}
    artifacts["fig_s2_summary.json"] = json.dumps(
        {
            "densities_ppm": densities,
            "rates_mhz": {k: fit["rate_mhz"] for k, fit in fits.items()},
            "mean_field_rates_mhz": {k: fit["mean_field_rate_mhz"] for k, fit in fits.items()},
            "stretch_beta": {k: fit["beta"] for k, fit in fits.items()},
            "ratio": ratio,
            "fit_converged": {k: fit["converged"] for k, fit in fits.items()},
            "fit_nfev": {k: fit["nfev"] for k, fit in fits.items()},
        },
        indent=2,
    )
    return configs, artifacts, rows, {}


def _fig_s3(realizations: int, seed: int) -> tuple:
    """Diffusion coefficient versus drive amplitude, with size extrapolation: ``diffusion`` per drive."""
    configs = [
        resolve_config({"experiment": "diffusion", "seed": seed, "realizations": realizations,
                        "params": {"omega_mhz": omega, "n_list": [100, 200]}})
        for omega in (2.0, 6.40, 20.0)
    ]
    runs = [_run_diffusion(config) for config in configs]
    table = [
        {"omega_MHz": s["omega_MHz"], "D_inf_nm2_per_us": s["D_inf_nm2_per_us"], "sigma": s["D_inf_sigma"]}
        for _, s, _ in runs
    ]
    lanczos = [{"omega_MHz": s["omega_MHz"], **entry} for _, s, record in runs for entry in record["lanczos"]]
    d_inf = [entry["D_inf_nm2_per_us"] for entry in table]
    monotone = all(a < b for a, b in zip(d_inf, d_inf[1:]))
    rows = [
        _row("D_inf at 6.40 MHz", f"{d_inf[1]:.4f}", "0.22 (band 0.13-0.33)", 0.13 <= d_inf[1] <= 0.33),
        _row("D_inf monotone in drive", str(monotone), "True", monotone),
    ]
    names = ("omega_MHz", "D_inf_nm2_per_us", "sigma")
    artifacts = {
        "fig_s3_dinf.csv": fitkit.csv_text(names, *([entry[k] for entry in table] for k in names)),
        "fig_s3_summary.json": json.dumps(table, indent=2),
    }
    return configs, artifacts, rows, {"lanczos": lanczos}


def _fig_s4a(realizations: int, seed: int) -> tuple:
    """Per-cycle polarization buildup and its saturation fit: ``protocol`` at 6.40 MHz."""
    config = resolve_config({"experiment": "protocol", "seed": seed, "realizations": realizations})
    artifacts, s, _ = _run_protocol(config)
    rows = [
        _row("N_sat (cycles)", f"{s['N_sat']:.2f}", "3 (band 2-4)", 2.0 <= s["N_sat"] <= 4.0, s["converged"]),
        _row("P_sat at 6.40 MHz", f"{s['P_sat']:.4f}", "reported", None, s["converged"]),
    ]
    return [config], {k.replace("protocol", "fig_s4a"): v for k, v in artifacts.items()}, rows, {}


def _fig_s4b(realizations: int, seed: int) -> tuple:
    """Saturation amplitude versus drive and the disorder crossover fit: ``crossover`` over eight drives."""
    config = resolve_config({"experiment": "crossover", "seed": seed, "realizations": realizations,
                             "params": {"omegas_mhz": [0.5, 1.0, 2.0, 3.2, 6.4, 10.0, 20.0, 40.0]}})
    artifacts, s, _ = _run_crossover(config)
    rows = [
        _row("P_inf (asymptote)", f"{s['A_inf']:.4f}", "0.179 (band 0.12-0.24)", 0.12 <= s["A_inf"] <= 0.24, s["converged"]),
        _row("crossover W (MHz)", f"{s['W_MHz']:.3f}", "finite", math.isfinite(s["W_MHz"]) and s["W_MHz"] > 0, s["converged"]),
    ]
    return [config], {k.replace("crossover", "fig_s4b"): v for k, v in artifacts.items()}, rows, {}


def _fig_2c(realizations: int, seed: int) -> tuple:
    """Differential readout transient and its equilibration time, on the
    networks and cycle of the resolved ``protocol`` config that ``fig-s4a`` runs."""
    config = resolve_config({"experiment": "protocol", "seed": seed, "realizations": realizations})
    cycle = _protocol_config(config["params"], config["params"]["omega_mhz"])
    eq = protocol.readout_equilibration(_protocol_factory(config), cycle, realizations)
    # tau_eq is the saturation fit's tau, the amplitude its amp
    s = {
        "tau_eq_us": eq.fit["tau"],
        "amplitude": eq.fit["amp"],
        "n_realizations": realizations,
        **_fit_tail(eq.fit),
    }
    rows = [
        _row("tau_eq (us)", f"{s['tau_eq_us']:.2f}", "2.2 +- 0.6 (exp); < 8.6", s["tau_eq_us"] < 8.6, s["converged"]),
        _row("Delta_C amplitude", f"{s['amplitude']:.4f}", "reported", None, s["converged"]),
    ]
    artifacts = {
        "fig_2c_delta_c.csv": fitkit.csv_text(("t_us", "delta_c"), eq.times_us, eq.delta_c),
        "fig_2c_summary.json": json.dumps(s, indent=2),
    }
    # no `run` config executes; the readout's settings are a manifest-only record
    return [], artifacts, rows, {"readout_config": config}


# tag -> preset; the tags and their default realization counts are
# spinnet.cli._PRESET_REALIZATIONS
_PRESETS = {
    "closed-form-chain": _closed_form_chain,
    "fig-s2": _fig_s2,
    "fig-s3": _fig_s3,
    "fig-s4a": _fig_s4a,
    "fig-s4b": _fig_s4b,
    "fig-2c": _fig_2c,
}
