"""Tests of the benchmark itself; every workload runs at its smoke size.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _table_unit(lines: list, name: str):
    for line in lines:
        fields = line.split()
        if fields[:1] == [name]:
            return fields[2]
    return None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert _table_unit(lines[:-1], m["name"]) == m["unit"], m["name"]
    for name in ("ops_attempted", "ops_failed"):
        assert _table_unit(lines[:-1], name) == "count"


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_headline_flags_changed_missing_and_extra_numbers():
    ref = {"a": 1.0, "b": -2.0}
    assert harness.compare_headline({"a": 1.0, "b": -2.0 * (1 + 1e-7)}, ref, 1e-6) == []
    assert harness.compare_headline({"a": 1.0, "b": -2.0 * (1 + 1e-5)}, ref, 1e-6)
    assert harness.compare_headline({"a": float("nan"), "b": -2.0}, ref, 1e-6)
    assert harness.compare_headline({"a": 1.0}, ref, 1e-6) == ["b"]
    assert harness.compare_headline({"a": 1.0, "b": -2.0, "c": 3.0}, ref, 1e-6) == ["c"]


def test_a_pass_that_misses_the_reference_counts_as_failed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["workloads"]["deer_paper"]["0"]["headline"]["ratio"] *= 1 + 1e-4
    path.write_text(json.dumps(reference))
    proc = _bench(tmp_path, "--workload", "deer_paper", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "output check" in proc.stderr


def test_missing_wrap_point_fails_loudly():
    modules = {name: types.SimpleNamespace() for name in tracing.MODULES}
    with pytest.raises(tracing.MissingWrapPoint, match="spinnet.transport.build_rates"):
        tracing.check_wrap_points(modules)


def test_per_layer_list_is_every_traced_metric():
    reported = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    reported["tracing_overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == reported


def test_predictions_name_listed_metrics_and_workloads():
    layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(WORKLOADS)
    for p in predictions["predictions"]:
        assert set(p["layer_metrics"]) <= layer, p["id"]
        assert all(m in end_to_end and w in WORKLOADS for m, w in p["moves"]), p["id"]
        assert set(p["unchanged"]) <= set(WORKLOADS), p["id"]
