import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_compare_trees_reports_largest_numeric_change(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, last in ((parent, "0.5"), (change, "0.5000001")):
        write(root, "fig-s3/seed0/d.csv", f"L_nm,D\n71.0,{last}\n")
        write(root, "fig-s3/seed0/s.json", '{"D": [1.0, 2.0], "ok": true, "tag": "x"}')
        write(root, "fig-s3/seed0/manifest.json", f'{{"created_unix": {last}}}')
    rows, verdict = artifact_diff.compare_trees(parent, change)
    assert verdict == artifact_diff.DIFFERS
    deltas = {rel.name: delta for rel, delta, _ in rows}
    # the manifests differ only in their creation time, which is not compared
    assert set(deltas) == {"d.csv", "s.json", "manifest.json"}
    assert deltas["s.json"] == deltas["manifest.json"] == (0.0, 0.0)
    abs_d, rel_d = deltas["d.csv"]
    assert abs(abs_d - 1e-7) < 1e-12 and abs(rel_d - 2e-7) < 1e-12
    assert "identical" in capsys.readouterr().out


def test_json_artifact_that_gains_a_key_compares_the_shared_keys(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write(parent, "run-deer/seed0/fit.json", '{"D": 1.0}')
    write(change, "run-deer/seed0/fit.json", '{"D": 1.0, "nfev": 5}')
    rows, verdict = artifact_diff.compare_trees(parent, change)
    assert verdict == artifact_diff.ADDED_KEYS
    assert rows == [(Path("run-deer/seed0/fit.json"), (0.0, 0.0), ("added nfev",))]
    assert "max_abs 0.000e+00  max_rel 0.000e+00  added nfev" in capsys.readouterr().out
    artifact_diff.summarize(rows)
    assert "added nfev" in capsys.readouterr().out


def verdict_of(tmp_path, parent_files, change_files):
    for side, files in (("parent", parent_files), ("change", change_files)):
        for rel, text in files.items():
            write(tmp_path / side, rel, text)
    return artifact_diff.compare_trees(tmp_path / "parent", tmp_path / "change")[1]


FIT = {"run-deer/seed0/fit.json": '{"rate": 0.5}', "run-deer/seed0/trace.csv": "t,s\n0.0,1.0\n"}


def test_verdict_identical(tmp_path):
    assert verdict_of(tmp_path, FIT, FIT) == artifact_diff.IDENTICAL == 0


def test_verdict_added_keys_only(tmp_path):
    change = dict(FIT, **{"run-deer/seed0/fit.json": '{"rate": 0.5, "nfev": 7, "flags": {"ok": true}}'})
    assert verdict_of(tmp_path, FIT, change) == artifact_diff.ADDED_KEYS == 3


@pytest.mark.parametrize(
    "rel,text",
    [
        ("run-deer/seed0/trace.csv", "t,s\n0.0,0.9\n"),  # a CSV cell
        ("run-deer/seed0/fit.json", '{"rate": 0.6, "nfev": 7}'),  # a shared value, beside an added key
        ("run-deer/seed0/fit.json", "{}"),  # a removed key
        ("run-deer/seed0/fit.json", '{"rate":0.5}'),  # the same keys and values, other bytes
    ],
)
def test_verdict_differs(tmp_path, rel, text):
    assert verdict_of(tmp_path, FIT, dict(FIT, **{rel: text})) == artifact_diff.DIFFERS == 1


def test_verdict_added_file_is_an_addition(tmp_path, capsys):
    # e.g. a new verdicts.json beside unchanged artifacts
    change = dict(FIT, **{"run-deer/seed0/verdicts.json": '{"ok": true}'})
    assert verdict_of(tmp_path, FIT, change) == artifact_diff.ADDED_KEYS == 3
    assert "added file" in capsys.readouterr().out
    # beside any other difference it is one difference more
    change["run-deer/seed0/trace.csv"] = "t,s\n0.0,0.9\n"
    assert verdict_of(tmp_path / "csv", FIT, change) == artifact_diff.DIFFERS


def test_verdict_removed_file_differs(tmp_path, capsys):
    parent = dict(FIT, **{"run-deer/seed0/extra.json": '{"rate": 0.5}'})
    assert verdict_of(tmp_path, parent, FIT) == artifact_diff.DIFFERS == 1
    assert "removed file" in capsys.readouterr().out


def test_verdict_differs_outranks_added_keys(tmp_path):
    change = {
        "run-deer/seed0/fit.json": '{"rate": 0.5, "nfev": 7}',
        "run-deer/seed0/trace.csv": "t,s\n0.0,0.9\n",
    }
    assert verdict_of(tmp_path, FIT, change) == artifact_diff.DIFFERS


LANCZOS = [{"n_p1": 100, "basis_dim_range": [61, 84], "error_estimate_max": 3e-9}]


def manifest(lanczos, wall_time_s=1.0, out_dir="parent/run-diffusion/seed0", **records):
    config = {"experiment": "diffusion", "seed": 0, "out_dir": out_dir}
    times = {"wall_time_s": wall_time_s, "created_unix": wall_time_s}
    return json.dumps({"experiment": "diffusion", "config": config, **times, "lanczos": lanczos, **records}, indent=2)


def test_manifests_that_differ_in_a_lanczos_entry_differ(tmp_path, capsys):
    changed = [dict(LANCZOS[0], basis_dim_range=[61, 85])]
    parent = dict(FIT, **{"run-diffusion/seed0/manifest.json": manifest(LANCZOS)})
    change = dict(FIT, **{"run-diffusion/seed0/manifest.json": manifest(changed)})
    assert verdict_of(tmp_path, parent, change) == artifact_diff.DIFFERS == 1
    assert "max_abs 1.000e+00" in capsys.readouterr().out


def test_manifests_compare_without_their_run_to_run_fields(tmp_path):
    parent = dict(FIT, **{"run-diffusion/seed0/manifest.json": manifest(LANCZOS)})
    change = dict(FIT, **{"run-diffusion/seed0/manifest.json": manifest(LANCZOS, 2.5, "change/run-diffusion/seed0")})
    assert verdict_of(tmp_path, parent, change) == artifact_diff.IDENTICAL
    # a manifest that gains a record is an addition, like a JSON artifact that gains a key
    change["run-diffusion/seed0/manifest.json"] = manifest(LANCZOS, workers=2)
    assert verdict_of(tmp_path / "added", parent, change) == artifact_diff.ADDED_KEYS


def test_missing_tree_exits_2(tmp_path, capsys):
    assert artifact_diff.main([str(tmp_path / "absent"), str(tmp_path / "absent")]) == artifact_diff.FAILED == 2
    assert "no spinnet package" in capsys.readouterr().err


def test_keyed_change_names_removed_and_changed_keys():
    parent = {"rates": {"2.4": 1.0, "6.3": 2.0}, "ok": True, "old": [1]}
    change = {"rates": {"2.4": 1.0, "6.3": 2.5}, "ok": False}
    delta, notes = artifact_diff.keyed_change(parent, change)
    assert delta == (0.5, 0.2)
    assert notes == ("changed ok", "removed old/0")


@pytest.mark.parametrize(
    "parent, change, notes, verdict",
    [
        ({"a": 1}, {"a": 1, "readout_config": {}}, ("added readout_config",), artifact_diff.ADDED_KEYS),
        ({"a": 1, "configs": []}, {"a": 1}, ("removed configs",), artifact_diff.DIFFERS),
    ],
    ids=["gained", "lost"],
)
def test_an_empty_container_is_a_key_of_its_own(tmp_path, parent, change, notes, verdict):
    assert artifact_diff.keyed_change(parent, change) == ((0.0, 0.0), notes)
    files = lambda doc: {"run-deer/seed0/fit.json": json.dumps(doc)}
    assert verdict_of(tmp_path, files(parent), files(change)) == verdict


def test_largest_change_flags_cell_count_mismatch():
    assert artifact_diff.largest_change([1.0, 2.0], [1.0]) is None
    assert artifact_diff.largest_change([float("nan"), -4.0], [float("nan"), -2.0]) == (2.0, 0.5)


def test_run_configs_cover_every_csv_experiment(tmp_path, monkeypatch):
    from spinnet import cli, experiments

    # the fit configs read the tables the tool writes beside the configs
    for name, text in artifact_diff.FIT_TABLES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for config in artifact_diff.RUN_CONFIGS.values():
        assert cli.validate_config(config) == []
    covered = {c["experiment"] for c in artifact_diff.RUN_CONFIGS.values()}
    assert covered == set(experiments._EXPERIMENTS)
    # the protocol CSV leaves out its SEM columns for a single realization
    assert any(c["experiment"] == "protocol" and c["realizations"] == 1 for c in artifact_diff.RUN_CONFIGS.values())


def test_run_configs_cover_cluster_shapes_no_preset_runs():
    # fig-s2 runs 6-site lattice clusters only
    deer = [c for c in artifact_diff.RUN_CONFIGS.values() if c["experiment"] == "deer"]
    shapes = {(c["params"]["n_bath"], c["network"]["placement"]) for c in deer}
    assert (7, "diamond_lattice") in shapes
    assert any(placement == "continuum" for _, placement in shapes)


def test_run_configs_reach_the_exclusion_redraws(monkeypatch):
    # no preset places sites dense enough for the exclusion radius to refuse
    # one, so a continuum DEER config must, or the rewind of the block
    # placement goes through the byte gate unseen
    from spinnet import clusterdyn, network

    refused = []
    place = network._Placer.place_continuum

    def counting(placer):
        place(placer)
        refused.append(placer.attempts > placer.total)

    monkeypatch.setattr(network._Placer, "place_continuum", counting)
    for c in artifact_diff.RUN_CONFIGS.values():
        if c["experiment"] == "deer" and c["network"]["placement"] == "continuum":
            density, n_bath = c["network"]["densities_ppm"]["P1"], c["params"]["n_bath"]
            for r in range(c["realizations"]):
                clusterdyn.sample_nv_p1_cluster(density, n_bath, network.Placement.CONTINUUM, realization=r)
    assert any(refused)


def test_run_configs_cover_a_probe_only_diffusion_out_of_order():
    # fig-s3 and the diffusion config list their boxes in ascending order
    # and run more than one realization
    diffusion = [c for c in artifact_diff.RUN_CONFIGS.values() if c["experiment"] == "diffusion"]
    assert any(
        c["realizations"] == 1 and len(c["params"]["n_list"]) == 3 and c["params"]["n_list"] != sorted(c["params"]["n_list"])
        for c in diffusion
    )


def test_tags_cover_every_preset():
    from spinnet import cli, experiments

    # a new preset cannot skip the byte gate, nor run without a default realization count
    assert sorted(artifact_diff.TAGS) == sorted(experiments._PRESETS) == sorted(cli._PRESET_REALIZATIONS)


def test_run_artifacts_writes_run_outputs(tmp_path, capsys):
    src = artifact_diff.package_root(str(Path(__file__).resolve().parents[1]))
    runs = {"rabi": artifact_diff.RUN_CONFIGS["rabi"]}
    for side in ("parent", "change"):
        artifact_diff.run_artifacts(src, tmp_path / side, tags=(), seeds=(1,), runs=runs)
    rows, verdict = artifact_diff.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert verdict == artifact_diff.IDENTICAL
    # rabi draws nothing and takes no seed, so it runs once; its two manifests
    # differ only in their times and output paths
    assert {str(rel) for rel, _, _ in rows} == {
        "run-rabi/rabi_trace.csv", "run-rabi/rabi_summary.json", "run-rabi/manifest.json"
    }


def test_seedless_runs_are_the_experiments_that_take_no_seed():
    from spinnet import cli, experiments

    # a seedless run gets no --seed, which the experiments that draw nothing refuse
    takes_no_seed = {e for e in experiments._EXPERIMENTS if "seed" not in cli.resolve_config({"experiment": e})}
    assert set(artifact_diff.SEEDLESS) == takes_no_seed
