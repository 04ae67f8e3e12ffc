"""Named desk-scale reproduction presets for the command-line runner.

Each preset runs a reduced-realization version of one published analysis,
writes its artifacts, and returns comparison rows against the recorded
target values.  A row holds (quantity, simulated, target, within) so the
runner can print a uniform table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import clusterdyn, fitkit, protocol, transport

__all__ = ["PresetResult", "PRESETS", "run_preset"]


@dataclass
class PresetRow:
    quantity: str
    simulated: str
    target: str
    within: Optional[bool]


def _flag_stalled(row: PresetRow, *fits) -> PresetRow:
    """``row`` as it is when every fit behind its number converged; otherwise
    the row is not judged and its value says the fit stalled."""
    if all(f.converged for f in fits):
        return row
    return replace(row, simulated=f"{row.simulated} (fit stalled)", within=None)


@dataclass
class PresetResult:
    tag: str
    rows: list
    artifacts: dict  # filename -> text
    realizations: Optional[int] = None  # the count run_preset ran the preset with
    record: dict = field(default_factory=dict)  # manifest-only diagnostics


def closed_form_chain(realizations: int, seed: int) -> PresetResult:
    p_p1 = protocol.estimate_p1_polarization(0.143, 2.625, 0.75)
    t_spin = protocol.spin_temperature(0.074, 446.0)
    p_th = protocol.thermal_polarization(300.0, 446.0)
    gain = protocol.enhancement(0.074, p_th)
    rows = [
        PresetRow("P_p1 from contrast", f"{p_p1:.4f}", "0.074 +- 0.001", abs(p_p1 - 0.074) < 1e-3),
        PresetRow("spin temperature (K)", f"{t_spin:.4f}", "0.405 +- 0.005", abs(t_spin - 0.405) < 5e-3),
        PresetRow("thermal polarization", f"{p_th:.6f}", "1.0e-4 +- 5e-6", abs(p_th - 1.0e-4) < 5e-6),
        PresetRow("enhancement", f"{gain:.1f}", "740 +- 40", abs(gain - 740.0) < 40.0),
    ]
    summary = {
        "p_p1": p_p1,
        "t_spin_K": t_spin,
        "p_thermal": p_th,
        "enhancement": gain,
    }
    return PresetResult("closed-form-chain", rows, {"closed_form_chain.json": json.dumps(summary, indent=2)})


def fig_s2(realizations: int, seed: int) -> PresetResult:
    """Echo-decay rate versus bath density and the density-ratio check."""
    densities = [2.4, 6.3]
    artifacts = {}
    rates = {}
    for dens in densities:
        trace = clusterdyn.deer_trace(dens, n_realizations=realizations, seed=seed)
        fitres = clusterdyn.extract_dephasing_rate(trace)
        rates[dens] = fitres
        artifacts[f"deer_trace_{dens:g}ppm.csv"] = trace.to_csv()
    ratio = rates[6.3].rate_mhz / rates[2.4].rate_mhz
    rows = [
        _flag_stalled(PresetRow("decay rate 6.3 ppm (MHz)", f"{rates[6.3].rate_mhz:.3f}", "density-scaled", None), rates[6.3].fit),
        _flag_stalled(
            PresetRow("rate ratio 6.3/2.4", f"{ratio:.2f}", "2.63 +- 30%", abs(ratio - 2.625) < 0.3 * 2.625),
            rates[2.4].fit,
            rates[6.3].fit,
        ),
    ]
    artifacts["fig_s2_summary.json"] = json.dumps(
        {
            "densities_ppm": densities,
            "rates_mhz": {str(d): rates[d].rate_mhz for d in densities},
            "stretch_beta": {str(d): rates[d].beta for d in densities},
            "ratio": ratio,
            "fit_converged": {str(d): rates[d].fit.converged for d in densities},
            "fit_nfev": {str(d): rates[d].fit.iterations for d in densities},
        },
        indent=2,
    )
    return PresetResult("fig-s2", rows, artifacts)


def fig_s3(realizations: int, seed: int) -> PresetResult:
    """Diffusion coefficient versus drive amplitude, with size extrapolation."""
    omegas = [2.0, 6.40, 20.0]
    n_list = (100, 200)
    rows = []
    table = []
    lanczos = []
    for omega in omegas:
        res = transport.diffusion_scaling(
            omega, density_ppm=1.575, n_list=n_list, n_realizations=realizations, seed=seed
        )
        d_inf = res.extrapolation.d_inf_nm2_per_us
        table.append({"omega_MHz": omega, "D_inf_nm2_per_us": d_inf, "sigma": res.extrapolation.sigma})
        lanczos += [{"omega_MHz": omega, **entry} for entry in res.lanczos]
        if omega == 6.40:
            rows.append(PresetRow("D_inf at 6.40 MHz", f"{d_inf:.4f}", "0.22 (band 0.13-0.33)", 0.13 <= d_inf <= 0.33))
    monotone = all(table[k]["D_inf_nm2_per_us"] < table[k + 1]["D_inf_nm2_per_us"] for k in range(len(table) - 1))
    rows.append(PresetRow("D_inf monotone in drive", str(monotone), "True", monotone))
    names = ("omega_MHz", "D_inf_nm2_per_us", "sigma")
    artifacts = {
        "fig_s3_dinf.csv": fitkit.csv_text(names, *([entry[k] for entry in table] for k in names)),
        "fig_s3_summary.json": json.dumps(table, indent=2),
    }
    return PresetResult("fig-s3", rows, artifacts, record={"lanczos": lanczos})


def fig_s4a(realizations: int, seed: int) -> PresetResult:
    """Per-cycle polarization buildup and its saturation fit."""
    config = protocol.CycleConfig(omega_mhz=6.40)
    factory = lambda r: protocol.protocol_network(n_p1=120, seed=seed, realization=r)
    (res,) = protocol.run_iterative_protocol(factory, [config], n_realizations=realizations)
    sat = res.saturation
    rows = [
        PresetRow("N_sat (cycles)", f"{sat.n_sat:.2f}", "3 (band 2-4)", 2.0 <= sat.n_sat <= 4.0),
        PresetRow("P_sat at 6.40 MHz", f"{sat.a_sat:.4f}", "reported", None),
    ]
    rows = [_flag_stalled(row, sat.fit) for row in rows]
    summary = {
        "omega_MHz": 6.40,
        "P_sat": sat.a_sat,
        "P_sat_sigma": sat.a_sat_sigma,
        "N_sat": sat.n_sat,
        "N_sat_sigma": sat.n_sat_sigma,
        "n_realizations": realizations,
    }
    return PresetResult(
        "fig-s4a",
        rows,
        {"fig_s4a_trajectory.csv": res.to_csv(), "fig_s4a_summary.json": json.dumps(summary, indent=2)},
    )


def fig_s4b(realizations: int, seed: int) -> PresetResult:
    """Saturation amplitude versus drive and the disorder crossover fit."""
    omegas = [0.5, 1.0, 2.0, 3.2, 6.4, 10.0, 20.0, 40.0]
    configs = [protocol.CycleConfig(omega_mhz=omega) for omega in omegas]
    p_sat, p_sig, cross = protocol.saturation_sweep(configs, n_realizations=realizations, seed=seed)
    rows = [
        PresetRow("P_inf (asymptote)", f"{cross.a_inf:.4f}", "0.179 (band 0.12-0.24)", 0.12 <= cross.a_inf <= 0.24),
        PresetRow("crossover W (MHz)", f"{cross.w_mhz:.3f}", "finite", np.isfinite(cross.w_mhz) and cross.w_mhz > 0),
    ]
    rows = [_flag_stalled(row, cross.fit) for row in rows]
    summary = {
        "omegas_MHz": omegas,
        "P_sat": list(map(float, p_sat)),
        "A_inf": cross.a_inf,
        "A_inf_sigma": cross.a_inf_sigma,
        "W_MHz": cross.w_mhz,
        "W_sigma": cross.w_sigma,
    }
    return PresetResult(
        "fig-s4b",
        rows,
        {
            "fig_s4b_table.csv": fitkit.csv_text(("omega_MHz", "P_sat", "P_sat_sigma"), omegas, p_sat, p_sig),
            "fig_s4b_summary.json": json.dumps(summary, indent=2),
        },
    )


def fig_2c(realizations: int, seed: int) -> PresetResult:
    """Differential readout transient and its equilibration time."""
    factory = lambda r: protocol.protocol_network(n_p1=120, seed=seed, realization=r)
    eq = protocol.readout_equilibration(factory, protocol.CycleConfig(omega_mhz=6.40), realizations)
    rows = [
        PresetRow("tau_eq (us)", f"{eq.tau_eq_us:.2f}", "2.2 +- 0.6 (exp); < 8.6", eq.tau_eq_us < 8.6),
        PresetRow("Delta_C amplitude", f"{eq.amplitude:.4f}", "reported", None),
    ]
    rows = [_flag_stalled(row, eq.fit) for row in rows]
    summary = {"tau_eq_us": eq.tau_eq_us, "amplitude": eq.amplitude, "n_realizations": realizations}
    return PresetResult(
        "fig-2c",
        rows,
        {
            "fig_2c_delta_c.csv": fitkit.csv_text(("t_us", "delta_c"), eq.times_us, eq.delta_c),
            "fig_2c_summary.json": json.dumps(summary, indent=2),
        },
    )


PRESETS: dict = {
    "closed-form-chain": closed_form_chain,
    "fig-s2": fig_s2,
    "fig-s3": fig_s3,
    "fig-s4a": fig_s4a,
    "fig-s4b": fig_s4b,
    "fig-2c": fig_2c,
}

_DEFAULT_REALIZATIONS = {
    "closed-form-chain": 1,
    "fig-s2": 200,
    "fig-s3": 20,
    "fig-s4a": 100,
    "fig-s4b": 50,
    "fig-2c": 50,
}


def run_preset(tag: str, realizations: Optional[int] = None, seed: int = 0) -> PresetResult:
    if tag not in PRESETS:
        raise KeyError(tag)
    n = realizations if realizations is not None else _DEFAULT_REALIZATIONS[tag]
    result = PRESETS[tag](n, seed)
    result.realizations = n
    return result
