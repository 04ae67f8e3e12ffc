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
import typing
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

# The experiments whose params experiments._protocol_config spreads into a CycleConfig
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
    name.  A ``**`` argument sets nothing.
    """
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


# The exported functions that return a fit, and the results that keep one
# beside the data it was fitted to
FIT_FUNCTIONS = (
    "fit", "linear_fit", "fit_saturation", "fit_crossover",
    "extract_dephasing_rate", "extract_diffusion", "finite_size_extrapolate", "calibrate_alpha",
)
FIT_HOLDERS = {"ProtocolResult", "EquilibrationResult", "ScalingResult"}


def test_every_fit_returns_the_one_fit_record():
    # a number behind the paper is read off fitkit.FitResult where it is
    # published, so its diagnostics reach the summary through one record
    from spinnet.fitkit import FitResult

    functions = exported_functions()
    returns = {name: typing.get_type_hints(functions[name])["return"] for name in FIT_FUNCTIONS}
    assert all(r is FitResult for r in returns.values()), returns
    holders = {
        name for name, cls in exported_dataclasses().items() if FitResult in typing.get_type_hints(cls).values()
    }
    assert not holders - FIT_HOLDERS, f"records that copy a fit: {sorted(holders - FIT_HOLDERS)}"


def dataclasses_named(annotation) -> set:
    """Every dataclass in a resolved annotation, inside ``Optional``, ``tuple[...]`` and the like."""
    if inspect.isclass(annotation) and dataclasses.is_dataclass(annotation):
        return {annotation}
    return set().union(*map(dataclasses_named, typing.get_args(annotation)))


def test_every_returned_dataclass_is_exported():
    # the guards above walk the exported dataclasses; a record that an
    # exported function returns but its module leaves out would escape them
    exported = set(exported_dataclasses().values())
    missing = {
        f"{name} -> {cls.__module__}.{cls.__name__}"
        for name, fn in exported_functions().items()
        for cls in dataclasses_named(typing.get_type_hints(fn).get("return"))
        if cls not in exported
    }
    assert not missing, f"returned but not exported: {sorted(missing)}"


# The modules that return numbers: spinnet.experiments lays out every
# artifact and run record of them
PHYSICS_MODULES = ("network", "spinops", "clusterdyn", "transport", "protocol")


@pytest.mark.parametrize("name", PHYSICS_MODULES)
def test_physics_modules_lay_out_no_artifact(name):
    # an artifact name, CSV column or JSON key decided here would be a
    # second home beside experiments
    nodes = list(ast.walk(ast.parse((Path(spinnet.__file__).parent / f"{name}.py").read_text())))
    imported = {alias.name.split(".")[0] for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in nodes if isinstance(node, ast.ImportFrom)}
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named |= {node.name for node in nodes if isinstance(node, ast.alias)}
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    methods = {item.name for node in classes for item in node.body if isinstance(item, ast.FunctionDef)}
    assert "json" not in imported
    assert "csv_text" not in named
    assert not methods & {"to_csv", "to_json"}


@pytest.mark.parametrize("experiment", CYCLE_EXPERIMENTS)
def test_every_cycle_field_is_a_schema_param(experiment):
    # experiments._protocol_config spreads params into CycleConfig with **;
    # a field the schema does not give would stop every run with a KeyError
    from spinnet import cli, experiments

    properties = cli._load_schema()["definitions"][f"{experiment}_params"]["properties"]
    missing = sorted(experiments._CYCLE_FIELDS - set(properties))
    assert not missing, f"CycleConfig fields that {experiment} params cannot set: {missing}"


# Run settings whose schema defaults the physics modules once repeated as
# their own: the schema is their one home, and every caller passes them
FORMER_COPIES = {
    "protocol.CycleConfig": (
        "t_hh_us", "t_laser_us", "n_cycles", "p_nv0", "t1rho_dark_us", "t1rho_laser_us", "t1rho_nv_us", "probe_k",
    ),
    "protocol.protocol_network": ("n_p1", "w_mhz"),
    "protocol.estimate_p1_polarization": ("p_nv0",),
    "clusterdyn.deer_trace": ("n_realizations", "n_bath", "bath_pi", "placement"),
    "clusterdyn.sample_nv_p1_cluster": ("n_bath", "placement"),
    "clusterdyn.run_deer": ("bath_pi",),
    "clusterdyn.run_rabi": ("detuning_mhz",),
    "clusterdyn.estimate_concentration": ("n_mc",),
    "transport.diffusion_scaling": ("density_ppm", "n_list", "n_realizations", "w_mhz"),
    "transport.average_msd": ("n_realizations", "w_mhz"),
    "transport.transport_network": ("w_mhz",),
}


def test_no_run_setting_has_a_library_default():
    # a second default beside the schema's could drift from it unseen
    defaulted = []
    for target, names in FORMER_COPIES.items():
        module, name = target.split(".")
        parameters = inspect.signature(getattr(importlib.import_module(f"spinnet.{module}"), name)).parameters
        defaulted += [f"{target}:{p}" for p in names if parameters[p].default is not inspect.Parameter.empty]
    assert not defaulted, f"run settings with a library default: {defaulted}"


# Top-level definitions in src/spinnet that no code in src/ names, kept
# for a reason
UNNAMED_ALLOWED = {
    # a benchmark wrap point (perfbench/tracing.py); ROADMAP item 7 moves
    # it into the tests
    "spinops.operator_set",
    # a benchmark wrap point, and the one-box MSD the transport tests call
    "transport.average_msd",
    # ROADMAP item 5 decides whether the crossover reports it or it leaves src/
    "spinops.effective_disorder",
}


def unnamed_definitions() -> set:
    """``module.name`` of every top-level function and class of src/spinnet
    that no code in src/spinnet names outside its own body.

    A name counts where it is loaded as a name or an attribute: a call, or
    a function passed to a caller (a runner of ``experiments._EXPERIMENTS``,
    a realization function of ``fitkit.map_realizations``).  Names are
    matched by their text, so a local or attribute of the same name also
    counts.
    """
    named, defined = set(), set()
    for path in Path(spinnet.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        bodies = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
                bodies[node.name] = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if id(node) not in bodies.get(name, ()):
                named.add(name)
    return {f"{module}.{name}" for module, name in defined if name not in named}


def test_every_definition_is_named_in_src():
    # a definition that nothing in src/ reaches is dead code or a test helper
    unnamed = unnamed_definitions()
    assert unnamed == UNNAMED_ALLOWED, (
        f"named nowhere in src/: {sorted(unnamed - UNNAMED_ALLOWED)}; "
        f"allowed but named or gone: {sorted(UNNAMED_ALLOWED - unnamed)}"
    )


def test_benchmark_wrap_points_exist():
    # perfbench/ is outside the default test paths; load its tracer by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_wrap_points(tracing.load_modules())


DIFFUSION = {"experiment": "diffusion", "realizations": 2, "params": {"n_list": [50, 100]}}
RABI = {"experiment": "rabi", "params": {"n_points": 64}}
# between them every physics check of validate_config: the n_bath cap, the
# density underflow in the network and the calibration, the spacing warning
PHYSICS_CHECKED = [
    {"experiment": "deer", "params": {"n_bath": 4}, "network": {"densities_ppm": {"P1": 500000.0}}},
    {"experiment": "concentration", "params": {"gamma_exp_mhz": 0.5, "calibration_densities_ppm": [1.6, 3.2]}},
]
RUN = "assert cli.main(['run', path, '--out', out, '--quiet']) == 0"
# numpy and the modules that import it load with spinnet.experiments, when a
# command computes
NUMPY_AND_PHYSICS = (
    "numpy", "spinnet.experiments", "spinnet.network", "spinnet.spinops",
    "spinnet.clusterdyn", "spinnet.transport", "spinnet.protocol", "spinnet.fitkit",
)
SCIPY = ("scipy", "scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")
# ctypes loads with the allocator set-up of a command that computes
NOT_COMPUTING = (*SCIPY, *NUMPY_AND_PHYSICS, "ctypes")

# (statement run after `import spinnet.cli as cli`, the config it reads from
# `path`, modules it must leave out): the heavy imports stay inside the one
# function that needs each of them
FOOTPRINT_CASES = {
    "import-integrate": ("pass", None, ("scipy.integrate",)),
    "import": ("pass", None, ("jsonschema", *NOT_COMPUTING)),
    "validate-diffusion": ("cli.validate_config(config)", DIFFUSION, ("jsonschema", *NOT_COMPUTING)),
    "validate-physics": (
        "assert [cli.validate_config(c) for c in config][0][0].startswith('mean spacing')",
        PHYSICS_CHECKED,
        ("jsonschema", *NOT_COMPUTING),
    ),
    "run-invalid": (
        "assert cli.main(['run', path, '--out', out, '--quiet']) == 2",
        {"experiment": "deer", "params": {"n_bath": 12}},
        ("jsonschema", *NOT_COMPUTING),
    ),
    "reproduce-unknown-tag": ("assert cli.main(['reproduce', 'no-such-tag']) == 2", None, NOT_COMPUTING),
    "run-diffusion": (RUN, DIFFUSION, ("scipy.optimize",)),
    "run-rabi": (RUN, RABI, ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")),
    # the presets resolve their configs without the validator
    "reproduce-fig-s4a": (
        "assert cli.main(['reproduce', 'fig-s4a', '--realizations', '1', '--out', out, '--quiet']) == 0",
        None,
        ("jsonschema",),
    ),
}


def run_python(code: str, *args: str) -> str:
    """The last line that ``python -c code args`` prints, with this checkout's spinnet on the path."""
    src = str(Path(spinnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()[-1]


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
    assert json.loads(run_python(code, str(path), str(tmp_path / "out"), *absent)) == []


def test_validate_loads_only_the_standard_library_and_spinnet(tmp_path):
    # every module `spinnet validate` loads is in a bare interpreter, in the
    # standard library or in spinnet: no third-party package answers it
    path = tmp_path / "config.json"
    path.write_text(json.dumps(PHYSICS_CHECKED[0]))
    bare = set(json.loads(run_python("import json, sys; print(json.dumps(sorted(sys.modules)))")))
    code = (
        "import json, sys\n"
        "import spinnet.cli as cli\n"
        "assert cli.main(['validate', sys.argv[1]]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(run_python(code, str(path))))
    foreign = sorted(
        m for m in loaded - bare if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "spinnet"
    )
    assert not foreign, f"`spinnet validate` loads {foreign}"
