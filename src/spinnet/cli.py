"""Command-line runner: validated configs in, plot-ready CSV/JSON out.

Subcommands: ``run`` executes one experiment from a JSON config,
``reproduce`` executes a named desk-scale preset and prints a comparison
table, ``validate`` checks a config without computing.  A preset is a
set of ``run`` configs, executed by the same runners as ``run``, plus
its comparison rows; only ``closed-form-chain`` and ``fig-2c``, which no
experiment covers, call the physics themselves.  Beside its artifacts,
``run`` writes a ``manifest.json`` with the experiment, the config as
given plus the command-line overrides (defaults the config leaves out
are not filled in), the seed, the package version, the wall time and the
creation time; ``reproduce`` writes the preset tag, the realization
count it ran with, the seed, the version, the wall time, the creation
time and under ``configs`` the ``run`` configs the preset executed.
Both manifests record the environment the bytes of
the transport and protocol outputs depend on: the numpy and scipy
versions, the CPU count and the BLAS thread variables, and beside them
the most realization workers the command ran (``fitkit.map_realizations``).
The ``diffusion`` run and the ``fig-s3`` preset also record under
``lanczos``, per box size,
the range of Lanczos basis dimensions over the realizations and the
largest final error estimate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__, clusterdyn, fitkit, protocol, transport
from .network import EXCLUSION_NM, GenerationError, Placement, ppm_to_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    ArithmeticError,  # overflow, e.g. a rate cutoff or a mode decay past the largest float
    fitkit.FitError,
    transport.WindowError,
    transport.ConservationError,
    GenerationError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    pass


def _load_schema() -> dict:
    ref = resources.files("spinnet").joinpath("schemas/runconfig.schema.json")
    with ref.open() as fh:
        return json.load(fh)


def _nonfinite(value, path: str):
    """(path, value) of the first field of ``value`` that is a non-finite
    number or a list holding one, None when there is none."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, list) and not all(math.isfinite(v) for v in value if isinstance(v, float)):
        return path, value
    if isinstance(value, dict):
        for key, item in value.items():
            found = _nonfinite(item, f"{path}/{key}" if path else key)
            if found is not None:
                return found
    return None


def validate_config(config: dict) -> list:
    """Schema plus physics sanity; returns warnings, raises ConfigError."""
    # imported on first use: `reproduce` validates no config
    import jsonschema

    try:
        jsonschema.validate(config, _load_schema())
    except jsonschema.ValidationError as err:
        path = list(err.absolute_path)
        if err.validator == "additionalProperties":
            # name the unexpected key itself, e.g. params/omgea_mhz
            path.append(sorted(set(err.instance) - set(err.schema.get("properties", {})))[0])
        path = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config field {path}: {err.message}") from err
    bad = _nonfinite(config, "")
    if bad is not None:
        # Python's JSON parser reads NaN and Infinity, and no schema bound refuses nan
        path, value = bad
        raise ConfigError(f"config field {path}: {value} holds a value that is not a finite number")
    n_bath = config.get("params", {}).get("n_bath")
    if n_bath is not None and n_bath + 1 > math.log2(clusterdyn.MAX_CLUSTER_DIM):
        raise ConfigError(
            f"config field params/n_bath: {n_bath} bath spins and the sensor exceed "
            f"the cluster dimension cap {clusterdyn.MAX_CLUSTER_DIM}"
        )
    densities = {"network/densities_ppm/P1": config.get("network", {}).get("densities_ppm", {}).get("P1")}
    for i, d in enumerate(config.get("params", {}).get("calibration_densities_ppm", [])):
        densities[f"params/calibration_densities_ppm/{i}"] = d
    for field, d in densities.items():
        if d is not None and ppm_to_density(d) == 0:
            raise ConfigError(f"config field {field}: {d} ppm is no number density above zero")
    warnings = []
    total = sum(config.get("network", {}).get("densities_ppm", {}).values())
    if total > 0:
        spacing = ppm_to_density(total) ** (-1.0 / 3.0)
        if spacing < EXCLUSION_NM:
            warnings.append(
                f"mean spacing {spacing:.2f} nm at {total:g} ppm is below the "
                f"exclusion radius {EXCLUSION_NM:g} nm; generation may fail"
            )
    return warnings


def _params(config: dict) -> dict:
    return config.get("params", {})


def _density_p1(config: dict, default: float) -> float:
    return config.get("network", {}).get("densities_ppm", {}).get("P1", default)


def _placement(config: dict) -> Placement:
    name = config.get("network", {}).get("placement", "diamond_lattice")
    return Placement(name)


def _run_deer(config: dict) -> tuple:
    p = _params(config)
    density = _density_p1(config, 6.3)
    trace = clusterdyn.deer_trace(
        density,
        n_realizations=config.get("realizations", 200),
        n_bath=p.get("n_bath", 5),
        seed=config.get("seed", 0),
        bath_pi=p.get("bath_pi", True),
        placement=_placement(config),
    )
    fit = clusterdyn.extract_dephasing_rate(trace)
    summary = {
        "density_ppm": density,
        "rate_mhz": fit.rate_mhz,
        "rate_sigma": fit.rate_sigma,
        "mean_field_rate_mhz": clusterdyn.mean_field_deer_rate(density),
        "t2_us": fit.t2_us,
        "beta": fit.beta,
        "converged": fit.fit.converged,
        "nfev": fit.fit.iterations,
    }
    return (
        {"deer_trace.csv": trace.to_csv(), "deer_fit.json": json.dumps(summary, indent=2)},
        summary,
        {},
    )


def _run_hahn(config: dict) -> tuple:
    p = _params(config)
    density = _density_p1(config, 6.3)
    trace = clusterdyn.deer_trace(
        density,
        n_realizations=config.get("realizations", 200),
        n_bath=p.get("n_bath", 5),
        seed=config.get("seed", 0),
        bath_pi=False,
        placement=_placement(config),
    )
    summary = {
        "density_ppm": density,
        "max_refocus_deviation": float(np.max(np.abs(trace.signal - 1.0))),
    }
    return (
        {"hahn_trace.csv": trace.to_csv(), "hahn_summary.json": json.dumps(summary, indent=2)},
        summary,
        {},
    )


def _run_rabi(config: dict) -> tuple:
    p = _params(config)
    omega = p.get("omega_mhz", 5.0)
    detuning = p.get("detuning_mhz", 0.0)
    t_max = p.get("t_max_us", 2.0)
    n_points = p.get("n_points", 256)
    grid = np.linspace(0.0, t_max, n_points)
    trace = clusterdyn.run_rabi(omega, grid, detuning_mhz=detuning)
    peak = clusterdyn.fft_peak(trace)
    summary = {
        "omega_mhz": omega,
        "detuning_mhz": detuning,
        "peak_mhz": peak,
        "expected_mhz": float(np.hypot(omega, detuning)),
    }
    return (
        {"rabi_trace.csv": trace.to_csv(), "rabi_summary.json": json.dumps(summary, indent=2)},
        summary,
        {},
    )


def _run_diffusion(config: dict) -> tuple:
    p = _params(config)
    res = transport.diffusion_scaling(
        p.get("omega_mhz", 6.40),
        density_ppm=_density_p1(config, 1.575),
        n_list=tuple(p.get("n_list", (100, 200, 400, 800))),
        n_realizations=config.get("realizations", 100),
        w_mhz=config.get("network", {}).get("disorder_mhz", 1.36),
        gamma_mhz=p.get("gamma_mhz", 0.15),
        seed=config.get("seed", 0),
    )
    d_inf = res.extrapolation.d_inf_nm2_per_us
    summary = {
        "omega_MHz": res.omega_mhz,
        "D_inf_nm2_per_us": d_inf,
        "D_inf_sigma": res.extrapolation.sigma,
        "diffusion_length_30us_nm": transport.diffusion_length(max(d_inf, 0.0), 30.0),
    }
    return (
        {
            "diffusion_scaling.csv": fitkit.csv_text(
                ("L_nm", "D_L_nm2_per_us", "sigma"), res.box_sizes_nm, res.d_values, res.d_sigmas
            ),
            "diffusion_summary.json": res.to_json(),
        },
        summary,
        {"lanczos": res.lanczos},
    )


_CYCLE_FIELDS = {f.name for f in dataclasses.fields(protocol.CycleConfig)} - {"omega_mhz"}


def _protocol_config(p: dict, omega: float) -> protocol.CycleConfig:
    """The CycleConfig at drive ``omega``; ``params`` keys that name its fields override its defaults."""
    return protocol.CycleConfig(omega_mhz=omega, **{k: v for k, v in p.items() if k in _CYCLE_FIELDS})


def _run_protocol(config: dict) -> tuple:
    p = _params(config)
    omega = p.get("omega_mhz", 6.40)
    seed = config.get("seed", 0)
    n_p1 = p.get("n_p1", 120)
    w = config.get("network", {}).get("disorder_mhz", 1.36)
    factory = lambda r: protocol.protocol_network(n_p1=n_p1, w_mhz=w, seed=seed, realization=r)
    (res,) = protocol.run_iterative_protocol(
        factory, [_protocol_config(p, omega)], n_realizations=config.get("realizations", 100)
    )
    sat = res.saturation
    summary = {
        "omega_MHz": omega,
        "P_sat": sat.a_sat,
        "P_sat_sigma": sat.a_sat_sigma,
        "N_sat": sat.n_sat,
        "N_sat_sigma": sat.n_sat_sigma,
        "n_realizations": res.n_realizations,
        "converged": sat.fit.converged,
        "nfev": sat.fit.iterations,
    }
    return (
        {
            "protocol_trajectory.csv": res.to_csv(),
            "protocol_summary.json": json.dumps(summary, indent=2),
        },
        summary,
        {},
    )


def _run_crossover(config: dict) -> tuple:
    p = _params(config)
    omegas = p.get("omegas_mhz", [0.5, 1.0, 2.0, 3.2, 6.4, 10.0])
    p_sat, p_sig, cross = protocol.saturation_sweep(
        [_protocol_config(p, float(o)) for o in omegas],
        n_realizations=config.get("realizations", 100),
        n_p1=p.get("n_p1", 120),
        seed=config.get("seed", 0),
        w_mhz=config.get("network", {}).get("disorder_mhz", 1.36),
    )
    summary = {
        "omegas_MHz": list(map(float, omegas)),
        "P_sat": list(map(float, p_sat)),
        "A_inf": cross.a_inf,
        "A_inf_sigma": cross.a_inf_sigma,
        "W_MHz": cross.w_mhz,
        "W_sigma": cross.w_sigma,
        "converged": cross.fit.converged,
        "nfev": cross.fit.iterations,
    }
    return (
        {
            "crossover_table.csv": fitkit.csv_text(("omega_MHz", "P_sat", "P_sat_sigma"), omegas, p_sat, p_sig),
            "crossover_summary.json": json.dumps(summary, indent=2),
        },
        summary,
        {},
    )


def _run_concentration(config: dict) -> tuple:
    p = _params(config)
    if "gamma_exp_mhz" not in p:
        raise ConfigError("config field params/gamma_exp_mhz: required for concentration")
    densities = p.get("calibration_densities_ppm", [1.6, 3.2, 6.3, 12.6])
    seed = config.get("seed", 0)
    n_real = config.get("realizations", 200)
    rates, sigmas = [], []
    for dens in densities:
        trace = clusterdyn.deer_trace(dens, n_realizations=n_real, seed=seed)
        fit = clusterdyn.extract_dephasing_rate(trace)
        rates.append(fit.rate_mhz)
        sigmas.append(fit.rate_sigma)
    calibration = clusterdyn.calibrate_alpha(densities, rates, rate_sigmas=sigmas)
    alpha, alpha_sigma = calibration["slope"], calibration.sigma("slope")
    # K: the dephasing per addressed spectral group at 1 ppm total density
    fraction = p.get("addressed_fraction", 0.25)
    k, k_sigma = alpha * fraction, alpha_sigma * fraction
    est = clusterdyn.estimate_concentration(
        p["gamma_exp_mhz"], p.get("gamma_sigma_mhz", 0.0), k, k_sigma, n_mc=p.get("n_mc", 10_000), seed=seed
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
    return ({"concentration_summary.json": json.dumps(summary, indent=2)}, summary, {})


_FIT_MODELS = {
    "stretched_exp": fitkit.STRETCHED_EXP,
    "exp_saturation": fitkit.EXP_SATURATION,
    "lorentzian": fitkit.LORENTZIAN,
    "damped_cosine": fitkit.DAMPED_COSINE,
    "rabi_crossover": protocol.CROSSOVER,
}


def _run_fit(config: dict) -> tuple:
    p = _params(config)
    model_name = p.get("model")
    if model_name not in _FIT_MODELS:
        raise ConfigError(
            f"config field params/model: must be one of {sorted(_FIT_MODELS)}"
        )
    model = _FIT_MODELS[model_name]
    p0 = p.get("p0")
    if p0 is not None and len(p0) != len(model.param_names):
        raise ConfigError(
            f"config field params/p0: {len(p0)} values for the {len(model.param_names)} "
            f"parameters {list(model.param_names)} of {model_name}"
        )
    path = p.get("data_csv")
    if not path or not os.path.exists(path):
        raise ConfigError("config field params/data_csv: file not found")
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
        if data[:, 2].any():
            sigma = data[:, 2]  # an all-zero column (a noiseless or one-realization trace): fit unweighted
    res = fitkit.fit(model, data[:, 0], data[:, 1], sigma=sigma, p0=p0)
    summary = {
        "model": model_name,
        "params": {k: res[k] for k in res.param_names},
        "sigmas": {k: res.sigma(k) for k in res.param_names},
        "residual_norm": res.residual_norm,
        "converged": res.converged,
    }
    return ({"fit_report.json": json.dumps(summary, indent=2)}, summary, {})


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


# each preset maps (realizations, seed) to (the `run` configs it executed
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
    configs = [
        {"experiment": "deer", "seed": seed, "realizations": realizations, "network": {"densities_ppm": {"P1": d}}}
        for d in densities
    ]
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
        {"experiment": "diffusion", "seed": seed, "realizations": realizations,
         "params": {"omega_mhz": omega, "n_list": [100, 200]}}
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
    config = {"experiment": "protocol", "seed": seed, "realizations": realizations,
              "params": {"omega_mhz": 6.40, "n_p1": 120}}
    artifacts, s, _ = _run_protocol(config)
    rows = [
        _row("N_sat (cycles)", f"{s['N_sat']:.2f}", "3 (band 2-4)", 2.0 <= s["N_sat"] <= 4.0, s["converged"]),
        _row("P_sat at 6.40 MHz", f"{s['P_sat']:.4f}", "reported", None, s["converged"]),
    ]
    return [config], {k.replace("protocol", "fig_s4a"): v for k, v in artifacts.items()}, rows, {}


def _fig_s4b(realizations: int, seed: int) -> tuple:
    """Saturation amplitude versus drive and the disorder crossover fit: ``crossover`` over eight drives."""
    config = {"experiment": "crossover", "seed": seed, "realizations": realizations,
              "params": {"omegas_mhz": [0.5, 1.0, 2.0, 3.2, 6.4, 10.0, 20.0, 40.0], "n_p1": 120}}
    artifacts, s, _ = _run_crossover(config)
    rows = [
        _row("P_inf (asymptote)", f"{s['A_inf']:.4f}", "0.179 (band 0.12-0.24)", 0.12 <= s["A_inf"] <= 0.24, s["converged"]),
        _row("crossover W (MHz)", f"{s['W_MHz']:.3f}", "finite", math.isfinite(s["W_MHz"]) and s["W_MHz"] > 0, s["converged"]),
    ]
    return [config], {k.replace("crossover", "fig_s4b"): v for k, v in artifacts.items()}, rows, {}


def _fig_2c(realizations: int, seed: int) -> tuple:
    """Differential readout transient and its equilibration time."""
    factory = lambda r: protocol.protocol_network(n_p1=120, seed=seed, realization=r)
    eq = protocol.readout_equilibration(factory, protocol.CycleConfig(omega_mhz=6.40), realizations)
    s = {
        "tau_eq_us": eq.tau_eq_us,
        "amplitude": eq.amplitude,
        "n_realizations": realizations,
        "converged": eq.fit.converged,
        "nfev": eq.fit.iterations,
    }
    rows = [
        _row("tau_eq (us)", f"{s['tau_eq_us']:.2f}", "2.2 +- 0.6 (exp); < 8.6", s["tau_eq_us"] < 8.6, s["converged"]),
        _row("Delta_C amplitude", f"{s['amplitude']:.4f}", "reported", None, s["converged"]),
    ]
    artifacts = {
        "fig_2c_delta_c.csv": fitkit.csv_text(("t_us", "delta_c"), eq.times_us, eq.delta_c),
        "fig_2c_summary.json": json.dumps(s, indent=2),
    }
    return [], artifacts, rows, {}


# tag -> (preset, default realization count)
_PRESETS = {
    "closed-form-chain": (_closed_form_chain, 1),
    "fig-s2": (_fig_s2, 200),
    "fig-s3": (_fig_s3, 20),
    "fig-s4a": (_fig_s4a, 100),
    "fig-s4b": (_fig_s4b, 50),
    "fig-2c": (_fig_2c, 50),
}


def _out_root() -> str:
    return os.environ.get("SPINNET_OUT", "spinnet_runs")


def _environment() -> dict:
    """Library versions, CPU count, the most realization workers the command
    used and the BLAS thread variables (None when unset)."""
    # imported here, not with the module: a bare CLI start never needs scipy
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": fitkit.workers_used,
        **{name: os.environ.get(name) for name in fitkit.BLAS_THREAD_VARS},
    }


def _write_artifacts(out_dir: str, artifacts: dict, manifest: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _apply_overrides(config: dict, args) -> dict:
    config = json.loads(json.dumps(config))
    if args.seed is not None:
        config["seed"] = args.seed
    if args.realizations is not None:
        config["realizations"] = args.realizations
    if args.omega_mhz is not None:
        experiment = config.get("experiment")
        # an unknown or missing experiment is left to the schema check
        params = _load_schema()["definitions"].get(f"{experiment}_params")
        if params is not None and "omega_mhz" not in params["properties"]:
            raise ConfigError(f"--omega-mhz: experiment {experiment!r} takes no omega_mhz")
        config.setdefault("params", {})["omega_mhz"] = args.omega_mhz
    if args.out is not None:
        config["out_dir"] = args.out
    return config


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = _apply_overrides(config, args)
        warnings = validate_config(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    experiment = config["experiment"]
    out_dir = config.get("out_dir") or os.path.join(_out_root(), experiment)
    start = time.time()
    fitkit.workers_used = 1
    try:
        artifacts, summary, record = _EXPERIMENTS[experiment](config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except fitkit.WorkerLost as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    manifest = {
        "experiment": experiment,
        "config": config,
        "seed": config.get("seed", 0),
        "version": __version__,
        "wall_time_s": time.time() - start,
        "created_unix": time.time(),
        "environment": _environment(),
        **record,
    }
    _write_artifacts(out_dir, artifacts, manifest)
    if not args.quiet:
        print(f"{experiment}: wrote {len(artifacts)} artifacts to {out_dir}")
        for key, value in summary.items():
            print(f"  {key} = {value}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.tag not in _PRESETS:
        tags = ", ".join(sorted(_PRESETS))
        print(f"error: unknown tag {args.tag!r}; valid tags: {tags}", file=sys.stderr)
        return EXIT_CONFIG
    if args.realizations is not None and args.realizations < 1:
        print(f"error: --realizations must be at least 1, got {args.realizations}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    if args.realizations is not None and args.tag == "closed-form-chain":
        print("error: --realizations: preset 'closed-form-chain' is closed-form and draws nothing", file=sys.stderr)
        return EXIT_CONFIG
    preset, default = _PRESETS[args.tag]
    realizations = args.realizations or default
    seed = args.seed or 0
    start = time.time()
    fitkit.workers_used = 1
    try:
        configs, artifacts, rows, record = preset(realizations, seed)
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except fitkit.WorkerLost as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    out_dir = args.out or os.path.join(_out_root(), args.tag)
    manifest = {
        "preset": args.tag,
        "realizations": realizations,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.time() - start,
        "created_unix": time.time(),
        "environment": _environment(),
        "configs": configs,
        **record,
    }
    _write_artifacts(out_dir, artifacts, manifest)
    if not args.quiet:
        print(f"{args.tag}: wrote {len(artifacts)} artifacts to {out_dir}")
        width = max(len(row[0]) for row in rows)
        for quantity, simulated, target, within in rows:
            if within is None:
                status = "  --  "
            else:
                status = "within" if within else "OUTSIDE"
            print(f"  {quantity:<{width}}  {simulated:>12}  target {target:<22} {status}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        warnings = validate_config(config)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    for w in warnings:
        print(f"warning: {w}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Run, reproduce, and validate spin-network simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a JSON config")
    run_p.add_argument("config", help="path to a RunConfig JSON file")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--realizations", type=int, default=None)
    run_p.add_argument("--omega-mhz", type=float, default=None, dest="omega_mhz")
    run_p.add_argument("--out", default=None, help="output directory (default $SPINNET_OUT/<experiment>)")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("reproduce", help="run a named desk-scale preset")
    rep_p.add_argument("tag", help="preset tag, e.g. fig-s4a")
    rep_p.add_argument("--seed", type=int, default=None)
    rep_p.add_argument("--realizations", type=int, default=None)
    rep_p.add_argument("--out", default=None)
    rep_p.add_argument("--quiet", action="store_true")
    rep_p.set_defaults(func=_cmd_reproduce)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a RunConfig JSON file")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
