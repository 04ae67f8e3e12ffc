"""The forked realization map: the same bytes at any worker count, the
worker-count rule, and the failure paths of a run whose realizations run
in workers."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinnet
from spinnet import cli, clusterdyn, fitkit, protocol, transport
from spinnet.network import GenerationError

SRC = str(Path(spinnet.__file__).resolve().parents[1])
GIB = 1 << 30


@pytest.fixture
def workers(monkeypatch):
    """Force every map to ``k`` workers, even above its realization count;
    after the test no worker may be left."""

    def force(k):
        monkeypatch.setattr(fitkit, "worker_count", lambda n: k)

    yield force
    assert multiprocessing.active_children() == []


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in fitkit.BLAS_THREAD_VARS and k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def deer_loop():
    trace = clusterdyn.deer_trace(6.3, n_realizations=5, n_bath=3, seed=1)
    return trace.signal, trace.sem


def protocol_loop():
    factory = lambda r: protocol.protocol_network(n_p1=30, seed=2, realization=r)
    configs = [protocol.CycleConfig(omega_mhz=omega, n_cycles=6) for omega in (1.0, 6.4)]
    results = protocol.run_iterative_protocol(factory, configs, n_realizations=4)
    return tuple(a for res in results for a in (res.p_nv, res.p_p1, res.p_nv_sem, res.p_p1_sem))


def readout_loop():
    factory = lambda r: protocol.protocol_network(n_p1=30, seed=3, realization=r)
    eq = protocol.readout_equilibration(factory, protocol.CycleConfig(omega_mhz=6.4), 3)
    return (eq.delta_c,)


def msd_loop(n):
    def run():
        curve, _ = transport.average_msd(6.4, 1.575, 50, n_realizations=n, seed=4)
        return curve.msd_nm2, curve.sem_nm2, curve.survival, curve.basis_dims, curve.basis_errors

    return run


LOOPS = {
    "run_deer": deer_loop,
    "run_iterative_protocol": protocol_loop,
    "readout_equilibration": readout_loop,
    "average_msd": msd_loop(3),
    # fewer realizations than the 3 workers
    "average_msd-2": msd_loop(2),
}


@pytest.mark.parametrize("loop", LOOPS)
def test_realization_loops_give_the_same_bytes_at_any_worker_count(loop, workers):
    runs = []
    for k in (1, 2, 3):
        workers(k)
        runs.append(LOOPS[loop]())
    for arrays in runs[1:]:
        for serial, forked in zip(runs[0], arrays, strict=True):
            assert serial.dtype == forked.dtype
            assert serial.tobytes() == forked.tobytes()


def test_map_keeps_realization_order_and_never_nests(monkeypatch, workers):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(fitkit, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(fitkit, "_available_bytes", lambda: 8 * GIB)
    rule = fitkit.worker_count
    assert rule(5) == 4
    workers(3)
    assert fitkit.map_realizations(lambda r: r * r, 10) == [r * r for r in range(10)]
    # inside a worker the rule gives 1, so a map there runs in place
    inner = fitkit.map_realizations(lambda r: (os.getpid(), rule(5)), 4)
    assert [count for _, count in inner] == [1, 1, 1, 1]
    assert os.getpid() not in {pid for pid, _ in inner}


@pytest.mark.parametrize(
    "env, cpus, available, expected",
    [
        ({}, 2, 8 * GIB, 1),  # no BLAS variable: BLAS already threads over every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8 * GIB, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, int(1.9 * GIB), 1),  # room for one realization
        ({"OMP_NUM_THREADS": "2"}, 4, 8 * GIB, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 8, 64 * GIB, 2),  # the largest count wins
        ({"OPENBLAS_NUM_THREADS": "1"}, 16, 3 * GIB, 3),
        ({"OPENBLAS_NUM_THREADS": "not a number"}, 2, 8 * GIB, 1),
    ],
)
def test_worker_count_rule(monkeypatch, env, cpus, available, expected):
    for name in fitkit.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(fitkit, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(fitkit, "_available_bytes", lambda: available)
    assert fitkit.worker_count(100) == expected
    assert fitkit.worker_count(1) == 1


def test_worker_exception_keeps_its_type(workers):
    workers(2)

    def fail(r):
        if r == 3:
            raise ValueError("realization 3")
        return r

    with pytest.raises(ValueError, match="realization 3"):
        fitkit.map_realizations(fail, 6)


def protocol_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "protocol", "realizations": 4, "params": {"n_p1": 30, "n_cycles": 4}}))
    return str(path)


def test_generation_error_in_a_worker_exits_3(tmp_path, monkeypatch, capsys, workers):
    workers(2)
    original = protocol.protocol_network

    def failing(*args, realization, **kwargs):
        if realization == 2:
            raise GenerationError("no room for the bath in realization 2")
        return original(*args, realization=realization, **kwargs)

    monkeypatch.setattr(protocol, "protocol_network", failing)
    assert cli.main(["run", protocol_config(tmp_path), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert "no room for the bath in realization 2" in capsys.readouterr().err


def test_a_lost_worker_exits_3_without_hanging(tmp_path):
    # the worker that builds realization 2 dies without a word
    code = (
        "import os, sys\n"
        "from spinnet import cli, fitkit, protocol\n"
        "fitkit.worker_count = lambda n: 2\n"
        "original = protocol.protocol_network\n"
        "def dying(*args, realization, **kwargs):\n"
        "    if realization == 2:\n"
        "        os._exit(7)\n"
        "    return original(*args, realization=realization, **kwargs)\n"
        "protocol.protocol_network = dying\n"
        "code = cli.main(['run', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
        "import multiprocessing\n"
        "assert multiprocessing.active_children() == []\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, protocol_config(tmp_path), str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "worker was lost" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_manifest_records_the_workers_used(tmp_path, workers):
    workers(2)
    out = tmp_path / "fig-s4a"
    assert cli.main(["reproduce", "fig-s4a", "--realizations", "2", "--quiet", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["environment"]["workers"] == 2
    config = tmp_path / "rabi.json"
    config.write_text(json.dumps({"experiment": "rabi", "params": {"n_points": 16}}))
    assert cli.main(["run", str(config), "--quiet", "--out", str(tmp_path / "rabi")]) == 0
    assert json.loads((tmp_path / "rabi" / "manifest.json").read_text())["environment"]["workers"] == 1


def test_piped_output_is_printed_once(tmp_path):
    # block-buffered stdout: what is buffered at the fork must not come back from every worker
    code = (
        "from spinnet import fitkit\n"
        "fitkit.worker_count = lambda n: 2\n"
        "print('before the map')\n"
        "print(sum(fitkit.map_realizations(lambda r: r, 4)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout == "before the map\n6\n"
    out = tmp_path / "fig-s4a"
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", "reproduce", "fig-s4a", "--realizations", "4", "--out", str(out)],
        capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS="1"), check=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == f"fig-s4a: wrote 2 artifacts to {out}"
    assert len(lines) == 3 and len(set(lines)) == 3
