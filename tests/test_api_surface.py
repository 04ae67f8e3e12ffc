"""Guards on the package surface that the runners and the benchmark tracer use."""

import ast
import dataclasses
import importlib
import inspect
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


# Optional parameters that no call in src/ passes, kept for a test that
# substitutes them
UNPASSED_ALLOWED = {
    # explicit couplings stand in for the dipolar ones in the frame and
    # pair-classification tests
    ("build_cluster_hamiltonian", "couplings"),
    # criterion 8 drives +-p_p1 through readout_equilibration, and the
    # quasi-equilibrium test reads it out on a grid out to 5e4 us
    ("readout_equilibration", "times_us"),
    ("readout_equilibration", "p_p1"),
}


def exported_functions() -> dict:
    """Every function named in a module's ``__all__``, by name."""
    functions = {}
    for name in MODULES:
        module = importlib.import_module(f"spinnet.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                assert attr not in functions, f"{attr} is exported by two modules"
                functions[attr] = obj
    return functions


def passed_parameters(functions: dict) -> set:
    """(function, parameter) for every argument some call in src/spinnet passes,
    positional arguments mapped through the signature."""
    passed = set()
    for path in Path(spinnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee not in functions:
                continue
            params = list(inspect.signature(functions[callee]).parameters.values())
            for param, arg in zip(params, node.args):
                if isinstance(arg, ast.Starred) or param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
                    break
                passed.add((callee, param.name))
            passed.update((callee, kw.arg) for kw in node.keywords if kw.arg is not None)
    return passed


def test_every_optional_parameter_is_passed_in_src():
    # a default that no runner overrides is a mode no experiment uses
    functions = exported_functions()
    optional = {
        (name, param.name)
        for name, fn in functions.items()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    }
    unpassed = optional - passed_parameters(functions)
    assert unpassed == UNPASSED_ALLOWED, (
        f"never passed in src/: {sorted(unpassed - UNPASSED_ALLOWED)}; "
        f"allowed but passed or gone: {sorted(UNPASSED_ALLOWED - unpassed)}"
    )


# Defaulted dataclass fields that no constructor or replace call in src/
# sets, kept for a test that varies them
UNSET_FIELDS_ALLOWED = {
    # criterion 2 compares the continuum nearest-neighbour law with no
    # exclusion, and the geometry tests enforce radii of 0.5, 2.5 and 25 nm
    ("EnsembleSpec", "exclusion_nm"),
    # the cluster and spin-operator tests quantize along z rather than the
    # (1, 1, 1) default to compare against closed forms, and a zero axis
    # must be refused
    ("EnsembleSpec", "field_axis"),
}

# The experiments whose params cli._protocol_config spreads into a CycleConfig
CYCLE_EXPERIMENTS = ("protocol", "crossover")


def exported_dataclasses() -> dict:
    """Every dataclass named in a module's ``__all__``, by name."""
    classes = {}
    for name in MODULES:
        module = importlib.import_module(f"spinnet.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                assert attr not in classes, f"{attr} is exported by two modules"
                classes[attr] = obj
    return classes


def set_fields(classes: dict) -> set:
    """(class, field) for every field some call in src/spinnet sets.

    A constructor call sets its keywords and, through the order of
    ``dataclasses.fields``, its positional arguments.  A ``replace`` call
    sets its keywords on every exported class that has a field of that
    name.  A ``**`` argument sets nothing: the cycle fields that
    ``cli._protocol_config`` spreads from ``params`` count as set only
    where the schema gives the key.
    """
    from spinnet import cli

    found = set()
    for path in Path(spinnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if callee == "replace":
                found.update(
                    (name, f.name) for name, cls in classes.items() for f in dataclasses.fields(cls) if f.name in keywords
                )
            elif callee in classes:
                init_fields = [f.name for f in dataclasses.fields(classes[callee]) if f.init]
                for field, arg in zip(init_fields, node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    found.add((callee, field))
                found.update((callee, kw) for kw in keywords)
    schema = cli._load_schema()["definitions"]
    given = set.intersection(*(set(schema[f"{e}_params"]["properties"]) for e in CYCLE_EXPERIMENTS))
    found.update(("CycleConfig", name) for name in cli._CYCLE_FIELDS & given)
    return found


def test_every_defaulted_field_is_set_in_src():
    # a field default that no runner overrides is a setting no experiment uses
    classes = exported_dataclasses()
    defaulted = {
        (name, f.name)
        for name, cls in classes.items()
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    }
    unset = defaulted - set_fields(classes)
    assert unset == UNSET_FIELDS_ALLOWED, (
        f"never set in src/: {sorted(unset - UNSET_FIELDS_ALLOWED)}; "
        f"allowed but set or gone: {sorted(UNSET_FIELDS_ALLOWED - unset)}"
    )


@pytest.mark.parametrize("experiment", CYCLE_EXPERIMENTS)
def test_every_cycle_field_is_a_schema_param(experiment):
    # cli._protocol_config spreads params into CycleConfig with **; a field
    # the schema does not give can never leave its default
    from spinnet import cli

    properties = cli._load_schema()["definitions"][f"{experiment}_params"]["properties"]
    missing = sorted(cli._CYCLE_FIELDS - set(properties))
    assert not missing, f"CycleConfig fields that {experiment} params cannot set: {missing}"


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
    "import": ("pass", None, ("jsonschema", "scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")),
    "validate-diffusion": (
        "cli.validate_config(config)", DIFFUSION, ("scipy", "scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")
    ),
    "run-diffusion": (RUN, DIFFUSION, ("scipy.optimize",)),
    "run-rabi": (RUN, RABI, ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")),
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
