"""The process set-up of `run` and `reproduce`: one BLAS thread before numpy
loads, the glibc allocator settings, and bytes that depend on neither."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinnet
from spinnet import cli, fitkit

SRC = str(Path(spinnet.__file__).resolve().parents[1])
try:
    GLIBC = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):
    GLIBC = False
MALLOC = {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": fitkit.REALIZATION_BYTES} if GLIBC else None


def child_env(threads=None):
    """This environment without the BLAS thread variables, or with each set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in fitkit.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env.update(dict.fromkeys(fitkit.BLAS_THREAD_VARS, threads))
    return env


def test_reproduce_bytes_do_not_depend_on_the_callers_threads(tmp_path):
    # the protocol presets go through eigh and matrix products, whose last
    # bits move with the BLAS thread count; the command pins one thread
    outputs = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "spinnet.cli", "reproduce", "fig-s4a", "--realizations", "4", "--quiet",
             "--out", str(out)],
            env=child_env(threads), check=True, timeout=300,
        )
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        # the manifest keeps the caller's values, not the ones the front set
        assert [environment[name] for name in fitkit.BLAS_THREAD_VARS] == [threads] * 3
        assert environment["malloc"] == MALLOC
    assert set(outputs[None]) == {"fig_s4a_trajectory.csv", "fig_s4a_summary.json"}
    assert outputs["1"] == outputs[None]
    assert outputs["2"] == outputs[None]


# Runs two commands in one fresh interpreter and prints the thread
# variables each manifest records, then the ones this process holds
TWO_COMMANDS = """
import json, os, sys
from spinnet import cli
for k in range(2):
    assert cli.main(["reproduce", "closed-form-chain", "--quiet", "--out", f"{sys.argv[1]}/{k}"]) == 0
    environment = json.load(open(f"{sys.argv[1]}/{k}/manifest.json"))["environment"]
    print(json.dumps([environment[name] for name in sys.argv[2:]]))
print(json.dumps([os.environ.get(name) for name in sys.argv[2:]]))
"""


def test_a_later_command_records_the_callers_threads(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TWO_COMMANDS, str(tmp_path), *fitkit.BLAS_THREAD_VARS],
        capture_output=True, text=True, env=child_env(), check=True, timeout=120,
    )
    first, second, held = (json.loads(line) for line in proc.stdout.splitlines())
    assert first == second == [None] * 3
    assert held == ["1"] * 3


# Writes fig-s2 and fig-s4a through the presets called directly, before any
# command has set the allocator up, then through cli.main, which sets it up,
# and prints the artifacts whose bytes differ and the manifests' records
ALLOCATOR_AB = """
import json, sys
from pathlib import Path
from spinnet import cli, experiments
out = Path(sys.argv[1])
runs = [("fig-s2", 20), ("fig-s4a", 4)]
direct = {tag: experiments._PRESETS[tag](n, 0)[1] for tag, n in runs}
differ, records = [], []
for tag, n in runs:
    assert cli.main(["reproduce", tag, "--realizations", str(n), "--quiet", "--out", str(out / tag)]) == 0
    differ += [name for name, text in direct[tag].items() if (out / tag / name).read_text() != text]
    records.append(json.loads((out / tag / "manifest.json").read_text())["environment"]["malloc"])
print(json.dumps([differ, records]))
"""


def test_allocator_settings_keep_the_bytes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", ALLOCATOR_AB, str(tmp_path)],
        capture_output=True, text=True, env=child_env("1"), check=True, timeout=300,
    )
    differ, records = json.loads(proc.stdout.splitlines()[-1])
    assert differ == []
    assert records == [MALLOC, MALLOC]


class NoMallopt:
    """A C library handle without ``mallopt``."""


@pytest.mark.parametrize("missing", ["confstr", "confstr name", "mallopt"])
def test_set_up_is_a_no_op_without_glibc_mallopt(tmp_path, monkeypatch, missing):
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or NoMallopt())
    if missing == "confstr":
        monkeypatch.delattr(os, "confstr")
    elif missing == "confstr name":
        def unknown(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(os, "confstr", unknown)
    else:
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    assert cli._tune_malloc() is None
    assert opened == ([None] if missing == "mallopt" else [])
    out = tmp_path / "chain"
    assert cli.main(["reproduce", "closed-form-chain", "--quiet", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["environment"]["malloc"] is None


def test_in_process_callers_keep_their_environment(tmp_path, monkeypatch):
    # numpy is loaded here, so the front cannot reach the BLAS: it leaves
    # the variables alone and the realizations stay in this process
    for name in fitkit.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    out = tmp_path / "fig-s4a"
    assert cli.main(["reproduce", "fig-s4a", "--realizations", "2", "--quiet", "--out", str(out)]) == 0
    assert dict(os.environ) == before
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    assert [environment[name] for name in fitkit.BLAS_THREAD_VARS] == [None, "3", None]
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert cli.main(["reproduce", "fig-s4a", "--realizations", "2", "--quiet", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["environment"]["workers"] == 1
