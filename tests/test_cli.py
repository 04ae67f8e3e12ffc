import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy

from spinnet import cli, clusterdyn, experiments, fitkit, protocol, transport


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# experiments that draw nothing: the schema refuses a seed and a realization count for them
DRAW_NOTHING = ("rabi", "fit")


def one_realization(experiment):
    """The realization count that keeps a run of ``experiment`` small, where it takes one."""
    return {} if experiment in DRAW_NOTHING else {"realizations": 1}


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "rabi", "params": {"omega_mhz": 5.0}})
    assert cli.main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_negative_density_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "deer", "network": {"densities_ppm": {"P1": -2.0}}})
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "densities_ppm/P1" in err


def test_validate_feasibility_warning(tmp_path, capsys):
    config = {
        "experiment": "deer",
        "network": {"densities_ppm": {"P1": 500000.0}},
    }
    path = write_config(tmp_path, config)
    assert cli.main(["validate", path]) == 0
    assert "exclusion" in capsys.readouterr().out


# (experiment, network block, the field the error names): each field is one
# that experiment's runner does not read
IGNORED_NETWORK_FIELDS = [
    ("protocol", {"box_nm": 80.0}, "network/box_nm"),
    ("protocol", {"exclusion_nm": 2.0}, "network/exclusion_nm"),
    ("diffusion", {"densities_ppm": {"NV": 0.6, "P1": 1.575}}, "network/densities_ppm/NV"),
    ("protocol", {"densities_ppm": {"P1": 30.0}}, "network/densities_ppm"),
    ("protocol", {"placement": "continuum"}, "network/placement"),
    ("diffusion", {"placement": "continuum"}, "network/placement"),
    ("crossover", {"placement": "continuum"}, "network/placement"),
    ("deer", {"disorder_mhz": 1.36}, "network/disorder_mhz"),
    ("hahn", {"disorder_mhz": 1.36}, "network/disorder_mhz"),
    ("rabi", {"densities_ppm": {"P1": 6.3}}, "network/densities_ppm"),
    ("concentration", {"placement": "continuum"}, "network/placement"),
    ("fit", {"disorder_mhz": 1.36}, "network/disorder_mhz"),
]


@pytest.mark.parametrize(
    "experiment, network, field",
    IGNORED_NETWORK_FIELDS,
    ids=[f"network{k}-{field}" for k, (_, _, field) in enumerate(IGNORED_NETWORK_FIELDS)],
)
def test_ignored_network_field_is_config_error(tmp_path, capsys, experiment, network, field):
    # no runner reads these, so a config that sets one must not run silently
    config = {"experiment": experiment, **one_realization(experiment), "network": network}
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# (experiment, params at the size cap, the same above it, the field the
# refusal names); the caps come from the memory model in the schema
SIZE_CAPS = [
    ("protocol", {"n_p1": 3000}, {"n_p1": 3001}, "params/n_p1"),
    ("crossover", {"n_p1": 3000}, {"n_p1": 3001}, "params/n_p1"),
    ("diffusion", {"n_list": [100, 6400]}, {"n_list": [100, 6401]}, "params/n_list/1"),
]


@pytest.mark.parametrize("experiment, at_cap, above, field", SIZE_CAPS, ids=[c[0] for c in SIZE_CAPS])
def test_size_above_the_memory_cap_is_config_error(tmp_path, capsys, monkeypatch, experiment, at_cap, above, field):
    def refused(*args, **kwargs):
        raise AssertionError("a refused config built a network")

    monkeypatch.setattr(protocol, "generate_network", refused)
    monkeypatch.setattr(transport, "generate_network", refused)
    assert cli.main(["validate", write_config(tmp_path, {"experiment": experiment, "params": at_cap})]) == 0
    path = write_config(tmp_path, {"experiment": experiment, "realizations": 1, "params": above})
    capsys.readouterr()
    assert cli.main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_rejects_unknown_experiment(tmp_path):
    path = write_config(tmp_path, {"experiment": "teleport"})
    assert cli.main(["validate", path]) == 2


def test_validate_rejects_nonpositive_drive(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "rabi", "params": {"omega_mhz": -3.0}})
    assert cli.main(["validate", path]) == 2
    assert "omega_mhz" in capsys.readouterr().err


def test_shipped_schema_is_valid_against_its_metaschema():
    # validate_config leaves this check out of every call
    import jsonschema

    schema = cli._load_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"experiment": "rabi", "x": "\u00b5s"}'.encode("latin-1"))
    flags = ["--out", str(tmp_path / "o"), "--quiet"] if command == "run" else []
    assert cli.main([command, str(path), *flags]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_path_that_cannot_be_created_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    path = write_config(tmp_path, {"experiment": "rabi", "params": {"n_points": 16}})
    for argv in (["run", path], ["reproduce", "closed-form-chain"]):
        assert cli.main([*argv, "--out", str(blocker / "out"), "--quiet"]) == 2
        assert "--out" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


def test_unwritable_out_is_refused_before_computing(tmp_path, capsys, monkeypatch):
    from spinnet import experiments

    def never(*args):
        raise AssertionError("computed although --out cannot be written")

    monkeypatch.setitem(experiments._EXPERIMENTS, "rabi", never)
    monkeypatch.setitem(experiments._PRESETS, "fig-s4a", never)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    path = write_config(tmp_path, {"experiment": "rabi"})
    for argv in (["run", path], ["reproduce", "fig-s4a", "--realizations", "2"]):
        assert cli.main([*argv, "--out", str(blocker / "out"), "--quiet"]) == 2
        assert "--out" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


def test_unknown_tag_lists_valid_tags(capsys):
    assert cli.main(["reproduce", "fig-s9"]) == 2
    err = capsys.readouterr().err
    assert "fig-s4a" in err and "closed-form-chain" in err


def test_run_rabi_writes_artifacts_and_manifest(tmp_path):
    path = write_config(tmp_path, {"experiment": "rabi", "params": {"omega_mhz": 6.40, "t_max_us": 2.0}})
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "rabi_trace.csv").exists()
    summary = json.loads((out / "rabi_summary.json").read_text())
    assert abs(summary["peak_mhz"] - 6.40) < 0.5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "rabi"
    # rabi draws nothing, so neither the manifest nor its config holds a seed
    assert manifest["seed"] is None and "seed" not in manifest["config"]
    assert manifest["config"]["params"]["omega_mhz"] == 6.40
    assert "version" in manifest and "wall_time_s" in manifest


def test_run_is_deterministic_per_seed(tmp_path):
    path = write_config(
        tmp_path,
        {
            "experiment": "protocol",
            "seed": 0,
            "realizations": 5,
            "params": {"omega_mhz": 6.40, "n_p1": 40},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", path, "--out", str(a), "--quiet"]) == 0
    assert cli.main(["run", path, "--out", str(b), "--quiet"]) == 0
    assert (a / "protocol_trajectory.csv").read_bytes() == (b / "protocol_trajectory.csv").read_bytes()
    assert (a / "protocol_summary.json").read_bytes() == (b / "protocol_summary.json").read_bytes()


def test_omega_override_reaches_manifest(tmp_path):
    path = write_config(
        tmp_path,
        {"experiment": "protocol", "realizations": 3, "params": {"omega_mhz": 2.0, "n_p1": 30}},
    )
    out = tmp_path / "o"
    assert cli.main(["run", path, "--out", str(out), "--omega-mhz", "4.0", "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["params"]["omega_mhz"] == 4.0
    summary = json.loads((out / "protocol_summary.json").read_text())
    assert summary["omega_MHz"] == 4.0


def test_omega_flag_rejected_where_experiment_has_no_drive(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "deer", "realizations": 1, "params": {"n_bath": 2}})
    out = tmp_path / "o"
    assert cli.main(["run", path, "--out", str(out), "--omega-mhz", "5.0", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "--omega-mhz" in err and "deer" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", DRAW_NOTHING)
@pytest.mark.parametrize("field", ["seed", "realizations"])
def test_experiment_that_draws_nothing_refuses_a_seed_and_a_count(tmp_path, capsys, experiment, field):
    # a seed or a count these runs accepted would be recorded and ignored
    params = {"rabi": {"n_points": 16}, "fit": {"model": "exp_saturation", "data_csv": "d.csv"}}[experiment]
    path = write_config(tmp_path, {"experiment": experiment, "params": params})
    out = tmp_path / "o"
    assert cli.main(["run", path, f"--{field}", "9", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: --{field}: experiment {experiment!r} takes no {field}\n"
    path = write_config(tmp_path, {"experiment": experiment, field: 9, "params": params})
    for argv in (["validate", path], ["run", path, "--out", str(out), "--quiet"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: config field {field}:")
    assert not out.exists()


def test_resolve_fills_only_the_objects_the_experiment_takes():
    config = {"experiment": "protocol", "params": [1], "network": {}}
    resolved = cli.resolve_config(config)
    # a params that is not an object stays for the schema check to name
    assert resolved["params"] == [1] and resolved["network"] == {"disorder_mhz": 1.36}
    assert resolved["seed"] == 0 and resolved["realizations"] == 100
    assert config == {"experiment": "protocol", "params": [1], "network": {}}
    # rabi takes no seed, no count and no network block
    assert cli.resolve_config({"experiment": "rabi"}) == {
        "experiment": "rabi",
        "params": {"omega_mhz": 5.0, "detuning_mhz": 0.0, "t_max_us": 2.0, "n_points": 256},
    }
    for config in ({"experiment": "teleport"}, {}, [1], "x"):
        assert cli.resolve_config(config) == config
    # the schema is read once per process, and a resolved config shares none of it
    cli.resolve_config({"experiment": "diffusion"})["params"]["n_list"].append(1600)
    assert cli.resolve_config({"experiment": "diffusion"})["params"]["n_list"] == [100, 200, 400, 800]
    assert cli._load_schema() is cli._load_schema()


# A small config of every experiment, the fields it does not set at their defaults
MINIMAL_CONFIGS = {
    "deer": {"experiment": "deer", "realizations": 8, "params": {"n_bath": 3}},
    "rabi": {"experiment": "rabi", "params": {"n_points": 32}},
    "hahn": {"experiment": "hahn", "realizations": 4, "params": {"n_bath": 3}},
    "diffusion": {"experiment": "diffusion", "realizations": 1, "params": {"n_list": [50, 100]}},
    "protocol": {"experiment": "protocol", "realizations": 2, "params": {"n_p1": 20, "n_cycles": 6}},
    "crossover": {"experiment": "crossover", "realizations": 2,
                  "params": {"n_p1": 20, "n_cycles": 6, "omegas_mhz": [1.0, 6.4, 20.0]}},
    "concentration": {"experiment": "concentration", "realizations": 8,
                      "params": {"gamma_exp_mhz": 0.6, "calibration_densities_ppm": [2.4, 6.3], "n_mc": 200}},
    "fit": {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": "data.csv"}},
}


@pytest.mark.parametrize("experiment", MINIMAL_CONFIGS)
def test_manifest_config_reruns_to_the_same_bytes(tmp_path, monkeypatch, experiment):
    # the manifest records the config with every default filled in, and
    # running that config writes what the minimal one wrote
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("x,y\n1,0.037\n2,0.064\n3,0.088\n4,0.104\n6,0.121\n10,0.140\n")
    config = MINIMAL_CONFIGS[experiment]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(first), "--quiet"]) == 0
    recorded = json.loads((first / "manifest.json").read_text())["config"]
    assert recorded == cli.resolve_config({**config, "out_dir": str(first)})
    path = write_config(tmp_path, recorded, "recorded.json")
    assert cli.main(["run", path, "--out", str(second), "--quiet"]) == 0
    assert json.loads((second / "manifest.json").read_text())["config"] == {**recorded, "out_dir": str(second)}
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names and names == sorted(p.name for p in second.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_crossover_uses_configured_disorder(tmp_path, monkeypatch):
    from spinnet import fitkit, protocol

    # the spy records calls in this process only, so the networks are built here
    monkeypatch.setattr(fitkit, "worker_count", lambda n: 1)
    seen = []
    original = protocol.protocol_network

    def recording(*args, **kwargs):
        seen.append(kwargs["w_mhz"])
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "protocol_network", recording)
    config = {
        "experiment": "crossover",
        "seed": 0,
        "realizations": 2,
        "network": {"disorder_mhz": 0.5},
        "params": {"omegas_mhz": [1.0, 3.2, 10.0], "n_p1": 30},
    }
    path = write_config(tmp_path, config)
    cli.main(["run", path, "--out", str(tmp_path / "x"), "--quiet"])
    assert seen and set(seen) == {0.5}


def test_crossover_honours_protocol_params(tmp_path):
    # every drive of a crossover run equals a protocol run at that drive
    params = {"n_p1": 30, "n_cycles": 8, "t_hh_us": 4.0, "probe_k": 5, "t1rho_nv_us": None}
    omegas = [1.0, 3.2, 10.0]
    config = {"experiment": "crossover", "seed": 2, "realizations": 3,
              "params": {"omegas_mhz": omegas, **params}}
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "x"), "--quiet"]) == 0
    rows = (tmp_path / "x" / "crossover_table.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == len(omegas)
    for omega, row in zip(omegas, rows):
        single = {"experiment": "protocol", "seed": 2, "realizations": 3,
                  "params": {"omega_mhz": omega, **params}}
        out = tmp_path / f"p{omega}"
        path = write_config(tmp_path, single, name=f"p{omega}.json")
        assert cli.main(["run", path, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "protocol_summary.json").read_text())
        trajectory = (out / "protocol_trajectory.csv").read_text().strip().splitlines()
        assert len(trajectory) == 1 + 8
        o, p_sat, p_sig = (float(v) for v in row.split(","))
        assert (o, p_sat, p_sig) == (omega, summary["P_sat"], summary["P_sat_sigma"])


@pytest.mark.parametrize(
    "experiment, params, typo",
    [
        ("deer", {"n_bath": 3, "bath_pi": True}, "bath_ip"),
        ("hahn", {"n_bath": 3}, "nbath"),
        ("rabi", {"omega_mhz": 5.0, "t_max_us": 2.0}, "omgea_mhz"),
        ("diffusion", {"omega_mhz": 6.40, "n_list": [100, 200]}, "n_lsit"),
        ("protocol", {"omega_mhz": 6.40, "n_cycles": 8}, "n_cylces"),
        ("crossover", {"omegas_mhz": [1.0, 2.0], "t1rho_nv_us": None}, "t1rho_vn_us"),
        ("concentration", {"gamma_exp_mhz": 1.0, "n_mc": 100}, "n_cm"),
        ("fit", {"model": "exp_saturation", "data_csv": "d.csv"}, "data_cvs"),
    ],
)
def test_misspelt_param_is_config_error(tmp_path, monkeypatch, capsys, experiment, params, typo):
    # the fit's table must exist for validate to say ok
    (tmp_path / "d.csv").write_text("x,y\n0.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    good = write_config(tmp_path, {"experiment": experiment, "params": params})
    assert cli.main(["validate", good]) == 0
    # the last key of params, misspelt
    bad_params = dict(list(params.items())[:-1]) | {typo: list(params.values())[-1]}
    bad = write_config(tmp_path, {"experiment": experiment, "params": bad_params}, name="bad.json")
    capsys.readouterr()
    assert cli.main(["run", bad, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field params/{typo}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "experiment, params, field",
    [
        ("deer", {"n_bath": 0}, "params/n_bath"),
        ("deer", {"n_bath": 12}, "params/n_bath"),
        ("hahn", {"n_bath": -1}, "params/n_bath"),
        ("protocol", {"n_cycles": 40}, "params/n_cycles"),
        ("protocol", {"n_p1": 0}, "params/n_p1"),
        ("crossover", {"omegas_mhz": [-1, 2]}, "params/omegas_mhz/0"),
        ("concentration", {"gamma_exp_mhz": 1.0, "addressed_fraction": 2}, "params/addressed_fraction"),
        ("rabi", {"n_points": 0}, "params/n_points"),
        ("diffusion", {"n_list": [50]}, "params/n_list"),
        ("crossover", {"omegas_mhz": [1.0]}, "params/omegas_mhz"),
        ("concentration", {"gamma_exp_mhz": 1.0, "calibration_densities_ppm": [6.3]}, "params/calibration_densities_ppm"),
        # one cycle leaves the two-parameter saturation fit underdetermined
        ("protocol", {"n_cycles": 1}, "params/n_cycles"),
        ("crossover", {"omegas_mhz": [1.0, 2.0], "n_cycles": 1}, "params/n_cycles"),
        # one bath spin gives no sensor at the 0.6/1.575 density ratio
        ("protocol", {"n_p1": 1}, "params/n_p1"),
        ("crossover", {"omegas_mhz": [1.0, 2.0], "n_p1": 1}, "params/n_p1"),
        # rows whose field is in the network block give that block's contents
        ("deer", {"densities_ppm": {"P1": 0}}, "network/densities_ppm/P1"),
        ("diffusion", {"densities_ppm": {"P1": 0}}, "network/densities_ppm/P1"),
    ],
)
def test_out_of_range_param_is_config_error(tmp_path, capsys, experiment, params, field):
    block = field.split("/")[0]
    config = {"experiment": experiment, **one_realization(experiment), block: params}
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tag", ["fig-s2", "fig-s4a", "closed-form-chain"])
def test_reproduce_zero_realizations_is_config_error(tmp_path, capsys, tag):
    out = tmp_path / "z"
    assert cli.main(["reproduce", tag, "--realizations", "0", "--quiet", "--out", str(out)]) == 2
    assert "--realizations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag", ["fig-s2", "fig-s4a"])
def test_reproduce_negative_seed_is_config_error(tmp_path, capsys, tag):
    # a negative seed reached numpy's SeedSequence and died with a traceback
    out = tmp_path / "neg"
    assert cli.main(["reproduce", tag, "--realizations", "2", "--seed", "-1", "--quiet", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_closed_form_chain_refuses_realizations(tmp_path, capsys):
    # the preset draws nothing, so a count would be recorded and ignored
    out = tmp_path / "cfc"
    assert cli.main(["reproduce", "closed-form-chain", "--realizations", "7", "--quiet", "--out", str(out)]) == 2
    assert "--realizations" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["reproduce", "closed-form-chain", "--seed", "3", "--quiet", "--out", str(out)]) == 0
    # it runs no `run` config either
    assert json.loads((out / "manifest.json").read_text())["configs"] == []


def test_reproduce_reports_a_key_error_inside_a_preset(tmp_path, monkeypatch):
    # only a tag that is not in the table is an unknown tag
    from spinnet import protocol

    def broken(*args, **kwargs):
        raise KeyError("P_sat")

    monkeypatch.setattr(protocol, "run_iterative_protocol", broken)
    with pytest.raises(KeyError, match="P_sat"):
        cli.main(["reproduce", "fig-s4a", "--realizations", "2", "--quiet", "--out", str(tmp_path / "o")])


def test_reproduce_manifest_records_realizations_used(tmp_path):
    default, given = tmp_path / "default", tmp_path / "given"
    assert cli.main(["reproduce", "closed-form-chain", "--quiet", "--out", str(default)]) == 0
    assert cli.main(["reproduce", "fig-2c", "--realizations", "2", "--quiet", "--out", str(given)]) == 0
    assert json.loads((default / "manifest.json").read_text())["realizations"] == 1
    assert json.loads((given / "manifest.json").read_text())["realizations"] == 2


def test_diffusion_manifests_record_the_lanczos_basis(tmp_path):
    config = {"experiment": "diffusion", "realizations": 2, "params": {"n_list": [50, 100]}}
    run_out, preset_out = tmp_path / "run", tmp_path / "fig-s3"
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(run_out), "--quiet"]) == 0
    assert cli.main(["reproduce", "fig-s3", "--realizations", "1", "--quiet", "--out", str(preset_out)]) == 0
    run_record = json.loads((run_out / "manifest.json").read_text())["lanczos"]
    preset_record = json.loads((preset_out / "manifest.json").read_text())["lanczos"]
    assert [e["n_p1"] for e in run_record] == [50, 100]
    assert [(e["omega_MHz"], e["n_p1"]) for e in preset_record] == [(w, n) for w in (2.0, 6.40, 20.0) for n in (100, 200)]
    for entry in run_record + preset_record:
        low, high = entry["basis_dim_range"]
        assert 1 <= low <= high <= entry["n_p1"] + 1
        assert 0.0 <= entry["error_estimate_max"] <= 1e-12
    # the record stays out of the artifacts
    assert "lanczos" not in (run_out / "diffusion_summary.json").read_text()
    assert "lanczos" not in (preset_out / "fig_s3_summary.json").read_text()


def test_reproduce_manifest_records_wall_time(tmp_path):
    out = tmp_path / "fig-2c"
    assert cli.main(["reproduce", "fig-2c", "--realizations", "2", "--quiet", "--out", str(out)]) == 0
    wall = json.loads((out / "manifest.json").read_text())["wall_time_s"]
    assert isinstance(wall, float) and wall > 0


def test_fig_2c_records_the_protocol_config_it_reads(tmp_path):
    # fig-2c runs no `run` config, but its networks and cycle are the
    # resolved protocol config's, which its manifest records
    out = tmp_path / "fig-2c"
    assert cli.main(["reproduce", "fig-2c", "--realizations", "2", "--seed", "1", "--quiet", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["configs"] == []
    record = manifest["readout_config"]
    assert cli.validate_config(record) == []
    assert record == cli.resolve_config({"experiment": "protocol", "seed": 1, "realizations": 2})


def read_trace(path, n_realizations):
    """A trace CSV as spinnet wrote it; every cell is repr(float), so it reads back exactly."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return clusterdyn.TraceResult(data[:, 0], data[:, 1], data[:, 2], n_realizations)


def test_deer_fit_records_the_fit_diagnostics(tmp_path):
    config = {"experiment": "deer", "realizations": 8, "params": {"n_bath": 3}}
    out = tmp_path / "deer"
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "deer_fit.json").read_text())
    fit = clusterdyn.extract_dephasing_rate(read_trace(out / "deer_trace.csv", 8))
    assert list(summary)[-2:] == ["converged", "nfev"]
    assert summary["converged"] is fit.fit.converged
    assert summary["nfev"] == fit.fit.iterations
    assert summary["rate_mhz"] == fit.rate_mhz and summary["beta"] == fit.beta
    # the dilute-bath rate sits right after the fitted one
    keys = list(summary)
    assert keys[keys.index("rate_sigma") + 1] == "mean_field_rate_mhz"
    assert summary["mean_field_rate_mhz"] == clusterdyn.mean_field_deer_rate(6.3)


def test_fig_s2_summary_records_the_fit_diagnostics(tmp_path):
    out = tmp_path / "fig-s2"
    assert cli.main(["reproduce", "fig-s2", "--realizations", "20", "--quiet", "--out", str(out)]) == 0
    summary = json.loads((out / "fig_s2_summary.json").read_text())
    assert list(summary)[-2:] == ["fit_converged", "fit_nfev"]
    for density in summary["densities_ppm"]:
        key = str(density)
        fit = clusterdyn.extract_dephasing_rate(read_trace(out / f"deer_trace_{density:g}ppm.csv", 20))
        assert summary["fit_converged"][key] is fit.fit.converged
        assert summary["fit_nfev"][key] == fit.fit.iterations
        assert summary["rates_mhz"][key] == fit.rate_mhz
        assert summary["mean_field_rates_mhz"][key] == clusterdyn.mean_field_deer_rate(density)
    keys = list(summary)
    assert keys[keys.index("rates_mhz") + 1] == "mean_field_rates_mhz"


def test_fitted_summaries_end_with_the_fit_diagnostics(tmp_path):
    protocol_run = {"experiment": "protocol", "realizations": 2, "params": {"n_p1": 30, "n_cycles": 8}}
    crossover_run = {"experiment": "crossover", "realizations": 2,
                     "params": {"n_p1": 30, "n_cycles": 8, "omegas_mhz": [1.0, 6.4, 20.0]}}
    for config in (protocol_run, crossover_run):
        out = tmp_path / config["experiment"]
        assert cli.main(["run", write_config(tmp_path, config), "--out", str(out), "--quiet"]) == 0
    protocol_summary = json.loads((tmp_path / "protocol" / "protocol_summary.json").read_text())
    crossover_summary = json.loads((tmp_path / "crossover" / "crossover_summary.json").read_text())
    assert list(crossover_summary)[:2] == ["omegas_MHz", "P_sat"]
    table = np.loadtxt(tmp_path / "crossover" / "crossover_table.csv", delimiter=",", skiprows=1)
    assert crossover_summary["P_sat"] == table[:, 1].tolist()
    out = tmp_path / "fig-2c"
    assert cli.main(["reproduce", "fig-2c", "--realizations", "2", "--quiet", "--out", str(out)]) == 0
    fig_2c_summary = json.loads((out / "fig_2c_summary.json").read_text())
    assert json.loads((out / "manifest.json").read_text())["configs"] == []
    for summary in (protocol_summary, crossover_summary, fig_2c_summary):
        assert list(summary)[-2:] == ["converged", "nfev"]
        assert isinstance(summary["converged"], bool) and summary["nfev"] >= 1


# (preset, realizations, {`run` artifact: preset artifact} per config, in config order)
PRESET_RUNS = {
    "fig-s2": (20, [{"deer_trace.csv": "deer_trace_2.4ppm.csv"}, {"deer_trace.csv": "deer_trace_6.3ppm.csv"}]),
    "fig-s3": (1, [{}, {}, {}]),
    "fig-s4a": (2, [{"protocol_trajectory.csv": "fig_s4a_trajectory.csv",
                     "protocol_summary.json": "fig_s4a_summary.json"}]),
    "fig-s4b": (2, [{"crossover_table.csv": "fig_s4b_table.csv", "crossover_summary.json": "fig_s4b_summary.json"}]),
}


@pytest.mark.parametrize("tag", PRESET_RUNS)
def test_preset_is_its_run_configs(tmp_path, tag):
    realizations, files = PRESET_RUNS[tag]
    preset = tmp_path / tag
    argv = ["reproduce", tag, "--realizations", str(realizations), "--seed", "1", "--quiet", "--out", str(preset)]
    assert cli.main(argv) == 0
    configs = json.loads((preset / "manifest.json").read_text())["configs"]
    assert len(configs) == len(files)
    runs = []
    for k, (config, names) in enumerate(zip(configs, files)):
        assert cli.validate_config(config) == []
        out = tmp_path / f"run{k}"
        assert cli.main(["run", write_config(tmp_path, config, f"c{k}.json"), "--out", str(out), "--quiet"]) == 0
        for run_name, preset_name in names.items():
            assert (out / run_name).read_bytes() == (preset / preset_name).read_bytes()
        runs.append(out)
    if tag == "fig-s2":
        summary = json.loads((preset / "fig_s2_summary.json").read_text())
        for density, out in zip(summary["densities_ppm"], runs):
            fit = json.loads((out / "deer_fit.json").read_text())
            assert summary["rates_mhz"][str(density)] == fit["rate_mhz"]
            assert summary["fit_nfev"][str(density)] == fit["nfev"]
    if tag == "fig-s3":
        table = json.loads((preset / "fig_s3_summary.json").read_text())
        for entry, out in zip(table, runs):
            summary = json.loads((out / "diffusion_summary.json").read_text())
            assert (entry["omega_MHz"], entry["D_inf_nm2_per_us"], entry["sigma"]) == (
                summary["omega_MHz"], summary["D_inf"], summary["sigma"]
            )


def test_manifests_record_the_environment(tmp_path, monkeypatch):
    # the transport and protocol bytes depend on the BLAS thread count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = write_config(tmp_path, {"experiment": "rabi", "params": {"omega_mhz": 6.40, "t_max_us": 2.0}})
    run, reproduce = tmp_path / "run", tmp_path / "reproduce"
    assert cli.main(["run", path, "--out", str(run), "--quiet"]) == 0
    assert cli.main(["reproduce", "closed-form-chain", "--quiet", "--out", str(reproduce)]) == 0
    for out in (run, reproduce):
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None
        assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")


def test_run_fit_round_trip(tmp_path):
    x = np.linspace(0.0, 30.0, 40)
    y = 0.9 * (1.0 - np.exp(-x / 3.0))
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)))
    path = write_config(
        tmp_path,
        {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": str(data)}},
    )
    out = tmp_path / "fit"
    assert cli.main(["run", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert abs(report["params"]["amp"] - 0.9) < 1e-6
    assert abs(report["params"]["tau"] - 3.0) < 1e-6


def test_run_fit_reads_a_written_trace(tmp_path, capsys):
    # a noiseless trace carries an all-zero SEM column: the fit runs unweighted
    rabi = write_config(tmp_path, {"experiment": "rabi", "params": {"omega_mhz": 5.0}}, "rabi.json")
    assert cli.main(["run", rabi, "--out", str(tmp_path / "rabi"), "--quiet"]) == 0
    trace = tmp_path / "rabi" / "rabi_trace.csv"
    assert np.loadtxt(trace, delimiter=",", skiprows=1)[:, 2].max() == 0.0
    config = {"experiment": "fit", "params": {"model": "damped_cosine", "data_csv": str(trace)}}
    out = tmp_path / "fit"
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["converged"]
    assert report["params"]["freq"] == pytest.approx(5.0, rel=1e-6)

    # a negative SEM, or one that mixes zero and positive entries, stays an error
    rows = trace.read_text().splitlines()
    for sem in ("-0.1", "0.1"):
        bad = tmp_path / f"bad{sem}.csv"
        bad.write_text("\n".join(rows[:2] + [r.rsplit(",", 1)[0] + "," + sem for r in rows[2:]]) + "\n")
        config["params"]["data_csv"] = str(bad)
        assert cli.main(["run", write_config(tmp_path, config), "--out", str(out), "--quiet"]) == 3
        assert "sigma values must be positive" in capsys.readouterr().err


def test_run_fit_reads_a_third_column_as_sigma_only_by_name(tmp_path, capsys):
    # a one-realization trajectory is cycle,p_nv,p_p1: p_p1 is no error bar for p_nv
    config = {"experiment": "protocol", "realizations": 1, "params": {"n_p1": 20, "n_cycles": 8}}
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "p"), "--quiet"]) == 0
    trajectory = tmp_path / "p" / "protocol_trajectory.csv"
    assert trajectory.read_text().splitlines()[0] == "cycle,p_nv,p_p1"
    fit = {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": str(trajectory)}}
    capsys.readouterr()
    assert cli.main(["run", write_config(tmp_path, fit, "fit.json"), "--out", str(tmp_path / "f"), "--quiet"]) == 2
    assert "config field params/data_csv:" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()
    # the same numbers under an error-bar name are fitted with them as sigma
    rows = trajectory.read_text().splitlines()
    for name in ("sem", "sigma", "p_p1_sem", "P_sat_sigma"):
        named = tmp_path / f"{name}.csv"
        named.write_text("\n".join([f"cycle,p_nv,{name}"] + rows[1:]) + "\n")
        fit["params"]["data_csv"] = str(named)
        assert cli.main(["run", write_config(tmp_path, fit, "fit.json"), "--out", str(tmp_path / name), "--quiet"]) == 0


def test_run_fit_refuses_a_wider_table(tmp_path, capsys):
    # a protocol trajectory (cycle,p_nv,p_p1,p_nv_sem,p_p1_sem) has no one x,y,sigma reading
    config = {"experiment": "protocol", "realizations": 2, "params": {"n_p1": 20, "n_cycles": 8}}
    assert cli.main(["run", write_config(tmp_path, config), "--out", str(tmp_path / "p"), "--quiet"]) == 0
    trajectory = tmp_path / "p" / "protocol_trajectory.csv"
    fit = {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": str(trajectory)}}
    capsys.readouterr()
    assert cli.main(["run", write_config(tmp_path, fit, "fit.json"), "--out", str(tmp_path / "f"), "--quiet"]) == 2
    assert "config field params/data_csv:" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


# case: (the field the refusal names, the params it changes, the text of
# one y cell, or None); each case spoils one part of a well-formed
# exp_saturation run
MALFORMED_FIT = {
    "non-numeric cell": ("params/data_csv", {}, "n/a"),
    "nan cell": ("params/data_csv", {}, "nan"),
    "data_csv is a directory": ("params/data_csv", {"data_csv": "."}, None),
    "p0 with 3 values for 2 parameters": ("params/p0", {"p0": [0.5, 2.0, 1.0]}, None),
    "p0 with 1 value for 2 parameters": ("params/p0", {"p0": [0.5]}, None),
    "p0 with a nan value": ("params/p0", {"p0": [math.nan, 2.0]}, None),
}


@pytest.mark.parametrize("case", MALFORMED_FIT)
def test_run_fit_refuses_malformed_input(tmp_path, capsys, case):
    field, spoilt, cell = MALFORMED_FIT[case]
    x = np.linspace(0.0, 30.0, 20).tolist()
    rows = [f"{a!r},{0.9 * (1.0 - math.exp(-a / 3.0))!r}" for a in x]
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "\n".join(rows) + "\n")
    params = {"model": "exp_saturation", "data_csv": str(data), "p0": [0.5, 2.0]}
    good = write_config(tmp_path, {"experiment": "fit", "params": params}, "good.json")
    assert cli.main(["run", good, "--out", str(tmp_path / "good"), "--quiet"]) == 0
    if cell is not None:
        rows[5] = f"{x[5]!r},{cell}"
        data.write_text("x,y\n" + "\n".join(rows) + "\n")
    bad = write_config(tmp_path, {"experiment": "fit", "params": params | spoilt}, "bad.json")
    capsys.readouterr()
    assert cli.main(["run", bad, "--out", str(tmp_path / "bad"), "--quiet"]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n# no rows\n"])
def test_run_fit_refuses_a_table_without_rows(tmp_path, capsys, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    config = write_config(tmp_path, {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": str(data)}})
    assert cli.main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "config field params/data_csv: no data rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_fit_whose_model_overflows_at_its_start_exits_3(tmp_path, capsys):
    # a Lorentzian width guessed from abscissae near 1e200 squares to infinity
    data = tmp_path / "data.csv"
    data.write_text("x,y\n0,1\n1e200,2\n2e200,5\n3e200,2\n4e200,1\n")
    config = write_config(tmp_path, {"experiment": "fit", "params": {"model": "lorentzian", "data_csv": str(data)}})
    assert cli.main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert "numeric failure: lorentzian:" in capsys.readouterr().err


# (preset, realizations, the rows judged from a fit)
STALLED_ROWS = {
    "fig-s2": (20, ["decay rate 6.3 ppm (MHz)", "rate ratio 6.3/2.4"]),
    "fig-s4a": (2, ["N_sat (cycles)", "P_sat at 6.40 MHz"]),
    "fig-s4b": (2, ["P_inf (asymptote)", "crossover W (MHz)"]),
    "fig-2c": (2, ["tau_eq (us)", "Delta_C amplitude"]),
}


@pytest.mark.parametrize("tag", STALLED_ROWS)
def test_reproduce_does_not_judge_a_stalled_fit(tmp_path, capsys, monkeypatch, tag):
    original = fitkit.fit
    monkeypatch.setattr(fitkit, "fit", lambda *a, **k: replace(original(*a, **k), converged=False))
    realizations, quantities = STALLED_ROWS[tag]
    argv = ["reproduce", tag, "--realizations", str(realizations), "--out", str(tmp_path / tag)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for quantity in quantities:
        (line,) = [ln for ln in lines if ln.strip().startswith(quantity)]
        assert "(fit stalled)" in line
        assert line.rstrip().endswith("--")


def test_numeric_failure_exits_3(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("x,y\n0.0,1.0\n1.0,1.0\n")
    path = write_config(
        tmp_path,
        {"experiment": "fit", "params": {"model": "stretched_exp", "data_csv": str(data)}},
    )
    assert cli.main(["run", path, "--out", str(tmp_path / "n"), "--quiet"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_infeasible_cluster_generation_exits_3(tmp_path, capsys):
    # 3 bath sites at 20000 ppm cannot keep the 1 nm exclusion radius
    config = {
        "experiment": "deer",
        "realizations": 2,
        "network": {"densities_ppm": {"P1": 20000.0}},
        "params": {"n_bath": 3},
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--out", str(tmp_path / "d"), "--quiet"]) == 3
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("numeric failure: could not satisfy exclusion radius")


def test_missing_required_param_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "concentration"})
    assert cli.main(["run", path, "--out", str(tmp_path / "c"), "--quiet"]) == 2
    assert "gamma_exp_mhz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"experiment": "concentration"}, "params/gamma_exp_mhz"),
        ({"experiment": "concentration", "params": {"n_mc": 100}}, "params/gamma_exp_mhz"),
        ({"experiment": "fit", "params": {"model": "nope", "data_csv": "d.csv"}}, "params/model"),
        ({"experiment": "fit", "params": {"data_csv": "d.csv"}}, "params/model"),
        ({"experiment": "fit", "params": {"model": "exp_saturation"}}, "params/data_csv"),
        ({"experiment": "fit"}, "params/model"),
    ],
)
def test_validate_refuses_what_run_refuses(tmp_path, capsys, config, field):
    path = write_config(tmp_path, config)
    assert cli.main(["validate", path]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert cli.main(["run", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_and_run_agree_on_a_missing_table(tmp_path, capsys):
    config = {"experiment": "fit", "params": {"model": "exp_saturation", "data_csv": str(tmp_path / "absent.csv")}}
    path = write_config(tmp_path, config)
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "o"), "--quiet"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: config field params/data_csv: file not found\n"
    assert not (tmp_path / "o").exists()


def test_schema_fit_models_are_the_runner_models():
    model = cli._load_schema()["definitions"]["fit_params"]["properties"]["model"]
    assert model["enum"] == list(experiments._FIT_MODELS)


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINNET_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    path = write_config(
        tmp_path, {"experiment": "rabi", "params": {"omega_mhz": 5.0, "n_points": 64}}
    )
    assert cli.main(["run", path, "--quiet"]) == 0
    assert (tmp_path / "root" / "rabi" / "rabi_trace.csv").exists()


def test_reproduce_preset_writes_comparison(tmp_path, capsys):
    out = tmp_path / "cfc"
    assert cli.main(["reproduce", "closed-form-chain", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "enhancement" in text and "within" in text
    assert (out / "closed_form_chain.json").exists()
    assert (out / "manifest.json").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", "reproduce", "closed-form-chain", "--quiet", "--out", str(tmp_path / "entry")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "entry" / "closed_form_chain.json").exists()
