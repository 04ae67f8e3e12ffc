"""Guards on the package surface that the runners and the benchmark tracer use."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spinnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(spinnet.__path__))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"spinnet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"spinnet.{name}.__all__ names missing attributes: {missing}"


def test_benchmark_wrap_points_exist():
    # perfbench/ is outside the default test paths; load its tracer by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_wrap_points(tracing.load_modules())


DIFFUSION = {"experiment": "diffusion", "realizations": 2, "params": {"n_list": [50, 100]}}
RABI = {"experiment": "rabi", "params": {"n_points": 64}}
RUN = "assert cli.main(['run', path, '--out', out, '--quiet']) == 0"

# (statement run after `import spinnet.cli as cli`, the config it reads from
# `path`, modules it must leave out): the heavy imports stay inside the one
# function that needs each of them
FOOTPRINT_CASES = {
    "import-integrate": ("pass", None, ("scipy.integrate",)),
    "import": ("pass", None, ("jsonschema", "scipy.optimize", "scipy.spatial")),
    "validate-diffusion": ("cli.validate_config(config)", DIFFUSION, ("scipy.optimize", "scipy.spatial")),
    "run-diffusion": (RUN, DIFFUSION, ("scipy.optimize",)),
    "run-rabi": (RUN, RABI, ("scipy.optimize", "scipy.spatial")),
}


@pytest.mark.parametrize("case", FOOTPRINT_CASES)
def test_cli_leaves_out_unused_modules(tmp_path, case):
    statement, config, absent = FOOTPRINT_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = (
        "import json, sys\n"
        "import spinnet.cli as cli\n"
        "path, out = sys.argv[1:3]\n"
        "config = json.loads(open(path).read())\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.argv[3:] if m in sys.modules)))\n"
    )
    src = str(Path(spinnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path), str(tmp_path / "out"), *absent],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
