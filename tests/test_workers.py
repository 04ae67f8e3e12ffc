"""The forked realization map: the same bytes at any worker count, the
worker-count rule, and the failure paths of a run whose realizations run
in workers."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinnet
from spinnet import cli, clusterdyn, experiments, fitkit, protocol, transport
from spinnet.network import GenerationError
from run_settings import cycle, deer_trace, protocol_factory, setting

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
    trace = deer_trace(6.3, 5, 1, n_bath=3)
    return trace.signal, trace.sem


def protocol_loop():
    factory = protocol_factory(2, n_p1=30)
    configs = [cycle(omega_mhz=omega, n_cycles=6) for omega in (1.0, 6.4)]
    results = protocol.run_iterative_protocol(factory, configs, n_realizations=4)
    return tuple(a for res in results for a in (res.p_nv, res.p_p1, res.p_nv_sem, res.p_p1_sem))


def readout_loop():
    factory = protocol_factory(3, n_p1=30)
    eq = protocol.readout_equilibration(factory, cycle(omega_mhz=6.4), 3)
    return (eq.delta_c,)


def msd_loop(n):
    def run():
        w, gamma = setting("diffusion", "network/disorder_mhz"), setting("diffusion", "params/gamma_mhz")
        curve, _ = transport.average_msd(6.4, 1.575, 50, n, w, gamma, seed=4)
        return curve.msd_nm2, curve.sem_nm2, curve.basis_dims, curve.basis_errors

    return run


def diffusion_config(n_list, realizations, seed):
    params = {"omega_mhz": 6.4, "n_list": n_list}
    return cli.resolve_config({"experiment": "diffusion", "seed": seed, "realizations": realizations, "params": params})


def diffusion_texts(config):
    """The artifacts and the ``lanczos`` record of a ``diffusion`` run, as experiments writes them."""
    artifacts, _, record = experiments._run_diffusion(config)
    return [*artifacts.values(), json.dumps(record)]


def scaling_loop(n):
    # box sizes out of order, so the schedule's largest-first lists differ from n_list
    def run():
        return (np.array(diffusion_texts(diffusion_config([100, 50, 75], n, 6))),)

    return run


LOOPS = {
    "run_deer": deer_loop,
    "run_iterative_protocol": protocol_loop,
    "readout_equilibration": readout_loop,
    "average_msd": msd_loop(3),
    # fewer realizations than the 3 workers
    "average_msd-2": msd_loop(2),
    # probes only: the realization map is empty
    "diffusion_scaling-1": scaling_loop(1),
    "diffusion_scaling-2": scaling_loop(2),
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


def deer_fit_loop():
    trace = deer_trace(6.3, 6, 1, n_bath=3)
    return trace.signal, trace.sem, clusterdyn.extract_dephasing_rate(trace).params


def protocol_fit_loop():
    factory = protocol_factory(2, n_p1=30)
    (res,) = protocol.run_iterative_protocol(factory, [cycle(omega_mhz=6.4, n_cycles=6)], 6)
    return res.p_nv, res.p_p1, res.p_nv_sem, res.p_p1_sem, res.saturation.params


def readout_fit_loop():
    factory = protocol_factory(3, n_p1=30)
    eq = protocol.readout_equilibration(factory, cycle(omega_mhz=6.4), 6)
    return eq.delta_c, eq.fit.params


ORDER_LOOPS = {
    "run_deer": deer_fit_loop,
    "run_iterative_protocol": protocol_fit_loop,
    "readout_equilibration": readout_fit_loop,
}


@pytest.mark.parametrize("loop", ORDER_LOOPS)
def test_reduction_and_fit_ignore_the_realization_order(loop, monkeypatch):
    # every realization average goes through fitkit.reduce_mean_sem, which
    # sums exactly: rows that come back in reverse give the same bytes
    forward = ORDER_LOOPS[loop]()
    monkeypatch.setattr(fitkit, "map_realizations", lambda fn, n: [fn(r) for r in reversed(range(n))])
    for want, got in zip(forward, ORDER_LOOPS[loop](), strict=True):
        assert want.tobytes() == got.tobytes()


def logged(log, fn, entry):
    """``fn``, appending ``entry(*args)`` to ``log`` at each call made in this process."""

    def call(*args, **kwargs):
        log.append(entry(*args))
        return fn(*args, **kwargs)

    return call


def test_diffusion_parent_only_reduces(monkeypatch, workers):
    # with workers, the parent builds no realization and forks two maps for all boxes
    built, maps = [], []
    for name in ("transport_network", "pair_table", "lanczos_basis"):
        monkeypatch.setattr(transport, name, logged(built, getattr(transport, name), lambda *a, name=name: name))
    monkeypatch.setattr(fitkit, "map_realizations", logged(maps, fitkit.map_realizations, lambda fn, n: n))
    run = lambda: diffusion_texts(diffusion_config([50, 100, 75], 3, 8))
    workers(1)
    serial = run()
    assert sorted(built) == sorted(["transport_network", "pair_table", "lanczos_basis"] * 9)
    assert maps == [3, 6]
    built.clear()
    maps.clear()
    workers(2)
    assert run() == serial
    assert built == []
    assert maps == [3, 6]


# Runs one `spinnet run` config on 2 forced workers and prints, for each task
# that imported modules while it ran, the task's index and those modules
GROWTH = """
import json, sys
from spinnet import cli, fitkit
fitkit.worker_count = lambda n: 2
run_task = fitkit._run_task

def watched(r):
    before = set(sys.modules)
    result = run_task(r)
    grown = sorted(set(sys.modules) - before)
    if grown:
        print(json.dumps([r, grown]), flush=True)
    return result

fitkit._run_task = watched
sys.exit(cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--quiet"]))
"""

GROWTH_CONFIGS = {
    "diffusion": {"experiment": "diffusion", "realizations": 2, "params": {"n_list": [50, 100]}},
    "protocol": {"experiment": "protocol", "realizations": 4, "params": {"n_p1": 30, "n_cycles": 4}},
    "deer-continuum": {
        "experiment": "deer", "realizations": 4, "params": {"n_bath": 3},
        "network": {"densities_ppm": {"P1": 6.3}, "placement": "continuum"},
    },
}


@pytest.mark.parametrize("name", GROWTH_CONFIGS)
def test_workers_import_nothing_during_their_realizations(tmp_path, name):
    # the parent imports what the realizations load on first use before it
    # forks, so no worker imports it anew
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GROWTH_CONFIGS[name]))
    proc = subprocess.run(
        [sys.executable, "-c", GROWTH, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


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
