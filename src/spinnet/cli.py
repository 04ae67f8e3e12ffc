"""Command-line front: validated configs in, plot-ready CSV/JSON out.

Subcommands: ``run`` executes one experiment from a JSON config,
``reproduce`` executes a named desk-scale preset and prints a comparison
table, ``validate`` checks a config without computing.  The runners and
presets are :mod:`spinnet.experiments`, which ``run`` and ``reproduce``
import only once the config or the preset tag has passed its checks: this
module loads no numpy, so ``validate`` and every config error (exit 2)
are answered before numpy loads.  The schema check is this module's own
(:func:`_check`, standard library only): it implements the keywords the
shipped schema uses, which the tests hold to that set, and names one
field by the rule of :func:`validate_config`; no command imports
jsonschema.  The run-config defaults are read in the
shipped schema and nowhere else: :func:`resolve_config` fills them into a
copy of a config, which ``run`` validates once and hands to the runner.

``run`` writes a ``manifest.json`` with the experiment, that resolved
config, the seed (null for ``rabi`` and ``fit``, which draw nothing),
the package version, the wall time and the creation time; ``reproduce``
writes the preset tag, the realization count it ran with, the seed, the
version, the times and under ``configs`` the resolved ``run`` configs
the preset executed; ``fig-2c``, which executes none, records under
``readout_config`` the resolved ``protocol`` config whose networks and
cycle its readout runs on.  Both record the environment the transport and
protocol bytes depend on: the numpy and scipy versions, the CPU count,
the caller's BLAS thread variables, the most realization workers the
command ran (``fitkit.map_realizations``) and the allocator settings it
applied.  The runners of :mod:`spinnet.experiments` add their own
records, such as the ``lanczos`` entries of ``diffusion`` and ``fig-s3``.

Before ``run`` and ``reproduce`` import numpy, they set the process up
for realization loops (:func:`_set_up_process`): BLAS runs one thread,
so the realizations spread over workers and the bytes do not depend on
the caller's thread setting, and on glibc freed memory stays in the heap
for the next realization.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
import time
from importlib import resources
from typing import NamedTuple, Optional

from . import ConfigError, __version__
from .constants import BLAS_THREAD_VARS, EXCLUSION_NM, MAX_CLUSTER_DIM, REALIZATION_BYTES, ppm_to_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# glibc's mallopt parameter numbers (malloc.h)
_MALLOPT_PARAMS = {"M_TRIM_THRESHOLD": -1, "M_MMAP_THRESHOLD": -3}
# Blocks below this size come from the heap, not from a mapping of their
# own: the largest mmap threshold glibc takes on 64-bit systems
_MMAP_THRESHOLD_BYTES = 32 << 20

# tag -> the realization count `reproduce <tag>` runs without --realizations;
# the presets themselves are spinnet.experiments._PRESETS
_PRESET_REALIZATIONS = {
    "closed-form-chain": 1,
    "fig-s2": 200,
    "fig-s3": 20,
    "fig-s4a": 100,
    "fig-s4b": 50,
    "fig-2c": 50,
}


# JSON type -> test of a parsed JSON value; an integer is also a float with
# no fraction, as in JSON Schema draft 7
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer(),
}

# bound keyword -> (test of a number against it that fails, the wording of the failure)
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "is less than the minimum of"),
    "maximum": (lambda v, b: v > b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b, "is less than or equal to the minimum of"),
}


@functools.cache
def _load_schema() -> dict:
    """The shipped run-config schema, read once per process; callers must
    not change it."""
    return json.loads(resources.files("spinnet").joinpath("schemas/runconfig.schema.json").read_text())


def _deref(node):
    """A schema node with its ``$ref`` followed into the definitions."""
    if isinstance(node, dict) and "$ref" in node:
        return _load_schema()["definitions"][node["$ref"].split("/")[-1]]
    return node


def _fields(experiment) -> Optional[dict]:
    """Name -> schema of each top-level field ``experiment`` takes, the
    shared node's keywords and its clause's in one; None for an unknown
    experiment."""
    schema = _load_schema()
    for rule in schema["allOf"]:
        if rule["if"]["properties"]["experiment"]["const"] == experiment:
            shared, own = schema["properties"], rule["then"]["properties"]
            # a clause refuses a shared field with {"not": {}}, which no value meets
            return {
                name: {**_deref(shared.get(name, {})), **_deref(own.get(name, {}))}
                for name in {**shared, **own}
                if own.get(name) != {"not": {}}
            }
    return None


def _fill(value, node):
    """``value`` with the defaults of ``node``'s properties set where it
    lacks them, and an integral float where ``node`` takes an integer as
    an int, recursively."""
    if isinstance(value, float) and value.is_integer() and node.get("type") == "integer":
        # draft 7 counts 16.0 as an integer; the runners take Python ints
        return int(value)
    if isinstance(value, dict):
        for name, prop in node.get("properties", {}).items():
            prop = _deref(prop)
            if name not in value and "default" in prop:
                value[name] = copy.deepcopy(prop["default"])
            if name in value:
                value[name] = _fill(value[name], prop)
    elif isinstance(value, list) and "items" in node:
        return [_fill(item, _deref(node["items"])) for item in value]
    return value


def resolve_config(config):
    """A copy of ``config`` with every schema default its experiment takes
    filled in, into objects only, and each integral float at an integer
    field read as an int.  A config that is not an object, whose
    experiment is unknown or that is nested too deeply to copy is returned
    as it is, for the schema check to name."""
    fields = _fields(config.get("experiment")) if isinstance(config, dict) else None
    if fields is None:
        return config
    try:
        copied = copy.deepcopy(config)
    except RecursionError:
        # far deeper than any config the schema takes, whose deepest field
        # (an item of params/n_list) is three keys down
        return config
    return _fill(copied, {"properties": fields})


class _Failure(NamedTuple):
    """One way a config fails the schema (see :func:`validate_config`)."""

    keyword: str
    # the keyword's value in the schema
    bound: object
    # the tested value's position: each key's index in its object, each item's index
    where: tuple
    # the field named: the tested value's keys, plus the key an object lacks or does not take
    path: tuple
    message: str


def _show(value) -> str:
    """``value`` as a failure message names it: a scalar by its repr, an
    object or array by its JSON type, however large or deep it is."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    return repr(value)


def _json_key(value):
    """A hashable key that two JSON values share when JSON Schema counts
    them equal: 1 and 1.0 do, true and 1 do not."""
    if isinstance(value, list):
        return ("array", *map(_json_key, value))
    if isinstance(value, dict):
        return ("object", frozenset((name, _json_key(item)) for name, item in value.items()))
    return isinstance(value, bool), value


def _valid(value, node) -> bool:
    """Whether ``value`` meets the schema ``node``."""
    return next(_check(value, node), None) is None


def _check(value, node, path=(), where=()):
    """Yield a :class:`_Failure` for each way ``value``, found at ``path``
    and ``where`` in a config, fails the schema ``node``.

    The keywords are those the shipped schema uses, with the JSON Schema
    draft 7 meaning: a ``$ref`` replaces its node, ``if`` applies ``then``
    when ``value`` meets it, and a bound or a length applies to values of
    its own type only.  Each node's keywords are checked in the schema's
    order and an object's properties in the config's order.  Messages are
    jsonschema's, with every object and array named by its JSON type
    (:func:`_show`).
    """
    node = _deref(node)
    for keyword, bound in node.items():
        # a failure of `value`, or with `key` of the object `value` at the key it lacks or does not take
        fail = lambda message, *key: _Failure(keyword, bound, where, (*path, *key), message)
        if keyword == "type":
            kinds = bound if isinstance(bound, list) else [bound]
            if not any(_TYPES[kind](value) for kind in kinds):
                yield fail(f"{_show(value)} is not of type {', '.join(map(repr, kinds))}")
        elif keyword == "enum":
            if value not in bound:
                yield fail(f"{_show(value)} is not one of {bound!r}")
        elif keyword == "const":
            if value != bound:
                yield fail(f"{bound!r} was expected")
        elif keyword in _BOUNDS:
            refuses, wording = _BOUNDS[keyword]
            if _TYPES["number"](value) and refuses(value, bound):
                yield fail(f"{value!r} {wording} {bound!r}")
        elif keyword in ("minLength", "minItems"):
            if isinstance(value, str if keyword == "minLength" else list) and len(value) < bound:
                yield fail(f"{_show(value)} {'should be non-empty' if bound == 1 else 'is too short'}")
        elif keyword == "uniqueItems":
            if bound and isinstance(value, list) and len(set(map(_json_key, value))) < len(value):
                yield fail(f"{_show(value)} has non-unique elements")
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _check(item, bound, (*path, i), (*where, i))
        elif keyword == "properties" and isinstance(value, dict):
            for i, (name, item) in enumerate(value.items()):
                if name in bound:
                    yield from _check(item, bound[name], (*path, name), (*where, i))
        elif keyword == "additionalProperties" and bound is False and isinstance(value, dict):
            extra = [name for name in value if name not in node.get("properties", {})]
            listed = f"{', '.join(map(repr, sorted(extra)))} {'was' if len(extra) == 1 else 'were'} unexpected"
            for name in extra:
                yield fail(f"Additional properties are not allowed ({listed})", name)
        elif keyword == "required" and isinstance(value, dict):
            for name in bound:
                if name not in value:
                    yield fail(f"{name!r} is a required property", name)
        elif keyword == "allOf":
            for rule in bound:
                yield from _check(value, rule, path, where)
        elif keyword == "if":
            if "then" in node and _valid(value, bound):
                yield from _check(value, node["then"], path, where)
        elif keyword == "not":
            if _valid(value, bound):
                yield fail(f"{_show(value)} should not be valid under {bound!r}")


def _nonfinite(value, path: str):
    """(path, value) of the first field of ``value`` that is a non-finite
    number or a list holding one, None when there is none."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, list) and not all(math.isfinite(v) for v in value if isinstance(v, float)):
        return path, value
    if isinstance(value, dict):
        for key, item in value.items():
            found = _nonfinite(item, f"{path}/{key}" if path else key)
            if found is not None:
                return found
    return None


def validate_config(config: dict) -> list:
    """Schema plus physics sanity of ``config`` as given (``run`` and
    ``validate`` pass the :func:`resolve_config` copy); returns warnings,
    raises ConfigError naming one field.

    The schema check (:func:`_check`) names the first failure in this
    order: a wrong value before a missing key, which a block that
    resolution filled in (a config without params) may lack; then the
    failure of the value nearest the root; then, at equal depth, the value
    first in the config (keys in the config's order, items by index); and
    for one value the keyword first in the schema.  The field named is the
    value's path, or for an object that lacks a key or holds one it does
    not take, that key, e.g. ``params/gamma_exp_mhz`` or
    ``params/omgea_mhz``.  A field that an experiment's clause refuses
    with ``{"not": {}}`` reads, e.g., "experiment 'rabi' takes no seed".
    """
    rank = lambda f: (f.keyword == "required", len(f.where), f.where)
    failure = min(_check(config, _load_schema()), key=rank, default=None)
    if failure is not None:
        message = failure.message
        if failure.keyword == "not" and failure.bound == {}:
            # a clause applies only to a config that names its experiment
            message = f"experiment {config['experiment']!r} takes no {failure.path[-1]}"
        path = "/".join(str(p) for p in failure.path) or "<root>"
        raise ConfigError(f"config field {path}: {message}")
    bad = _nonfinite(config, "")
    if bad is not None:
        # Python's JSON parser reads NaN and Infinity, and no schema bound refuses nan
        path, value = bad
        raise ConfigError(f"config field {path}: {value} holds a value that is not a finite number")
    data_csv = config.get("params", {}).get("data_csv")
    if data_csv is not None and not os.path.exists(data_csv):
        # the schema cannot see files; `run` reads the table only after this
        raise ConfigError("config field params/data_csv: file not found")
    n_bath = config.get("params", {}).get("n_bath")
    if n_bath is not None and n_bath + 1 > math.log2(MAX_CLUSTER_DIM):
        raise ConfigError(
            f"config field params/n_bath: {n_bath} bath spins and the sensor exceed "
            f"the cluster dimension cap {MAX_CLUSTER_DIM}"
        )
    densities = {"network/densities_ppm/P1": config.get("network", {}).get("densities_ppm", {}).get("P1")}
    for i, d in enumerate(config.get("params", {}).get("calibration_densities_ppm", [])):
        densities[f"params/calibration_densities_ppm/{i}"] = d
    for field, d in densities.items():
        if d is not None and ppm_to_density(d) == 0:
            raise ConfigError(f"config field {field}: {d} ppm is no number density above zero")
    warnings = []
    total = sum(config.get("network", {}).get("densities_ppm", {}).values())
    if total > 0:
        spacing = ppm_to_density(total) ** (-1.0 / 3.0)
        if spacing < EXCLUSION_NM:
            warnings.append(
                f"mean spacing {spacing:.2f} nm at {total:g} ppm is below the "
                f"exclusion radius {EXCLUSION_NM:g} nm; generation may fail"
            )
    return warnings


def _read_config(path: str):
    """The JSON value in the file at ``path``; ConfigError when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        # RecursionError: nested deeper than Python's JSON parser reads
        raise ConfigError(f"cannot read config: {err}") from err


def _out_root() -> str:
    return os.environ.get("SPINNET_OUT", "spinnet_runs")


def _environment(setup: dict) -> dict:
    """Library versions, CPU count, the most realization workers the command
    used, and the caller's BLAS thread variables and the allocator
    settings of :func:`_set_up_process`."""
    # imported here, not with the module: validation needs none of them
    import numpy
    import scipy

    from . import fitkit

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": fitkit.workers_used,
        **setup,
    }


def _tune_malloc() -> Optional[dict]:
    """Keep the memory a realization frees in the heap, on glibc.

    Blocks below 32 MiB come from the heap rather than from mappings of
    their own, and the heap gives its free top back to the system only
    beyond :data:`REALIZATION_BYTES`.  The LAPACK workspaces and result
    arrays one eigensolve frees are then reused by the next instead of
    being unmapped and faulted in again, and forked workers inherit the
    settings.  Returns the settings applied; None, with nothing changed,
    where the C library is not glibc or has no ``mallopt``.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        # no confstr, or a C library that does not know the name
        glibc = None
    if not glibc:
        return None
    # imported here: validation and the config errors never need it
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = {"M_MMAP_THRESHOLD": _MMAP_THRESHOLD_BYTES, "M_TRIM_THRESHOLD": REALIZATION_BYTES}
    # mallopt returns 1 on success
    applied = [mallopt(_MALLOPT_PARAMS[name], value) == 1 for name, value in settings.items()]
    return settings if all(applied) else None


# The caller's BLAS thread variables, read before _set_up_process set
# them; None while it has set none
_caller_threads: Optional[dict] = None


def _set_up_process() -> dict:
    """Set this process up for realization loops; returns what the manifest
    records of it.

    When numpy has not loaded yet, each BLAS thread variable is set to 1:
    BLAS then runs one thread, ``fitkit.worker_count`` spreads the
    realizations over the CPUs, and the bytes do not depend on the
    caller's setting.  A caller that has loaded numpy keeps its
    environment and its threads.  The allocator settings of
    :func:`_tune_malloc` apply either way.  The record holds the caller's
    thread variables (None when unset), also on a later command in the
    same process, and under ``malloc`` the allocator settings (None where
    none applied).
    """
    global _caller_threads
    if "numpy" not in sys.modules:
        _caller_threads = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    threads = _caller_threads or {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    return {**threads, "malloc": _tune_malloc()}


def _write_artifacts(out_dir: str, artifacts: dict, manifest: dict) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in artifacts.items():
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(text)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
    except OSError as err:
        # e.g. an --out path under a regular file
        raise ConfigError(f"--out: cannot write the artifacts: {err}") from err


def _apply_overrides(config, args):
    """``config`` with the command-line values set in place; ConfigError
    naming the flag when the experiment takes no such field.  A config or a
    ``params`` that is not an object is passed on unchanged, for the schema
    check to name."""
    if not isinstance(config, dict):
        return config
    fields = _fields(config.get("experiment"))
    flags = (
        ("--seed", None, "seed", args.seed),
        ("--realizations", None, "realizations", args.realizations),
        ("--omega-mhz", "params", "omega_mhz", args.omega_mhz),
    )
    for flag, block, name, value in flags:
        if value is None:
            continue
        # an unknown or missing experiment is left to the schema check
        if fields is not None and name not in (fields[block]["properties"] if block else fields):
            raise ConfigError(f"{flag}: experiment {config['experiment']!r} takes no {name}")
        target = config.setdefault(block, {}) if block else config
        if isinstance(target, dict):
            target[name] = value
    if args.out is not None:
        config["out_dir"] = args.out
    return config


def _check_out(out_dir: str) -> None:
    """ConfigError naming --out when ``out_dir``'s nearest existing ancestor
    (itself, if it exists) is not a writable directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK)):
        raise ConfigError(f"--out: cannot write the artifacts: {path} is not a writable directory")


def _compute_and_write(name: str, out_dir: str, compute, manifest: dict, quiet: bool) -> int:
    """Check ``out_dir``, then run ``compute(experiments)``, which returns
    (artifacts, lines printed after the artifact count, manifest-only
    record), and write the artifacts and ``manifest`` with its common
    tail; a numeric failure or a lost worker exits 3."""
    _check_out(out_dir)
    setup = _set_up_process()
    # imported only now: a config error exits before numpy and the physics load
    from . import experiments, fitkit

    start = time.time()
    fitkit.workers_used = 1
    try:
        artifacts, lines, record = compute(experiments)
    except experiments._NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except fitkit.WorkerLost as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    manifest.update(wall_time_s=time.time() - start, created_unix=time.time(), environment=_environment(setup), **record)
    _write_artifacts(out_dir, artifacts, manifest)
    if not quiet:
        print(f"{name}: wrote {len(artifacts)} artifacts to {out_dir}")
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _apply_overrides(resolve_config(_read_config(args.config)), args)
    for w in validate_config(config):
        print(f"warning: {w}", file=sys.stderr)
    experiment = config["experiment"]

    def compute(experiments):
        artifacts, summary, record = experiments._EXPERIMENTS[experiment](config)
        return artifacts, [f"  {key} = {value}" for key, value in summary.items()], record

    manifest = {"experiment": experiment, "config": config, "seed": config.get("seed"), "version": __version__}
    out_dir = config.get("out_dir") or os.path.join(_out_root(), experiment)
    return _compute_and_write(experiment, out_dir, compute, manifest, args.quiet)


def _cmd_reproduce(args) -> int:
    if args.tag not in _PRESET_REALIZATIONS:
        raise ConfigError(f"unknown tag {args.tag!r}; valid tags: {', '.join(sorted(_PRESET_REALIZATIONS))}")
    if args.realizations is not None and args.realizations < 1:
        raise ConfigError(f"--realizations must be at least 1, got {args.realizations}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.realizations is not None and args.tag == "closed-form-chain":
        raise ConfigError("--realizations: preset 'closed-form-chain' is closed-form and draws nothing")
    realizations = args.realizations or _PRESET_REALIZATIONS[args.tag]
    seed = args.seed or 0

    def compute(experiments):
        configs, artifacts, rows, record = experiments._PRESETS[args.tag](realizations, seed)
        width = max(len(row[0]) for row in rows)
        status = {None: "  --  ", True: "within", False: "OUTSIDE"}
        lines = [
            f"  {quantity:<{width}}  {simulated:>12}  target {target:<22} {status[within]}"
            for quantity, simulated, target, within in rows
        ]
        return artifacts, lines, {"configs": configs, **record}

    manifest = {"preset": args.tag, "realizations": realizations, "seed": seed, "version": __version__}
    out_dir = args.out or os.path.join(_out_root(), args.tag)
    return _compute_and_write(args.tag, out_dir, compute, manifest, args.quiet)


def _cmd_validate(args) -> int:
    warnings = validate_config(resolve_config(_read_config(args.config)))
    print("ok")
    for w in warnings:
        print(f"warning: {w}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Run, reproduce, and validate spin-network simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a JSON config")
    run_p.add_argument("config", help="path to a RunConfig JSON file")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--realizations", type=int, default=None)
    run_p.add_argument("--omega-mhz", type=float, default=None, dest="omega_mhz")
    run_p.add_argument("--out", default=None, help="output directory (default $SPINNET_OUT/<experiment>)")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("reproduce", help="run a named desk-scale preset")
    rep_p.add_argument("tag", help="preset tag, e.g. fig-s4a")
    rep_p.add_argument("--seed", type=int, default=None)
    rep_p.add_argument("--realizations", type=int, default=None)
    rep_p.add_argument("--out", default=None)
    rep_p.add_argument("--quiet", action="store_true")
    rep_p.set_defaults(func=_cmd_reproduce)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a RunConfig JSON file")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
