"""Every `spinnet run` exits 0, 2 or 3: a property test over configs drawn
from the schema's own types and bounds, plus single-field mutations out of
range."""

import json
import math
import multiprocessing
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinnet import cli, fitkit

SCHEMA = cli._load_schema()
DEFS = SCHEMA["definitions"]
EXPERIMENTS = SCHEMA["properties"]["experiment"]["enum"]
# the network definition each experiment's config takes, as the schema's allOf states it
NETWORKS = {
    rule["if"]["properties"]["experiment"]["const"]: rule["then"]["properties"]["network"]["$ref"].split("/")[-1]
    for rule in SCHEMA["allOf"]
}

# Sizes are capped small so that an example costs milliseconds; every other
# bound is the schema's.  Unbounded numbers are drawn up to FLOAT_MAX, and
# the mutations below reach past it.
SIZE_CAPS = {"realizations": 3, "n_p1": 24, "n_list": 30, "n_bath": 4, "n_points": 64, "n_mc": 200, "probe_k": 12}
FLOAT_MAX = 1e6
FIT_CSV = "x,y,sigma\n0,0.01,0.01\n1,0.4,0.01\n2,0.62,0.01\n3,0.75,0.01\n4,0.83,0.01\n6,0.9,0.01\n"


def resolve(node):
    return DEFS[node["$ref"].split("/")[-1]] if "$ref" in node else node


def number(node):
    return st.floats(
        min_value=node.get("minimum", node.get("exclusiveMinimum", -FLOAT_MAX)),
        max_value=node.get("maximum", FLOAT_MAX),
        exclude_min="exclusiveMinimum" in node,
        allow_nan=False,
        allow_infinity=False,
    )


def value(name, node, csv_path):
    """A value the schema accepts for field ``name``."""
    node = resolve(node)
    if "enum" in node:
        return st.sampled_from(node["enum"])
    kind = node.get("type")
    if kind == "integer":
        low = node.get("minimum", 0)
        high = min(node.get("maximum", low + 50), low + SIZE_CAPS.get(name, 50))
        return st.integers(low, high)
    if kind == "number":
        return number(node)
    if kind == ["number", "null"]:
        return st.none() | number(node)
    if kind == ["array", "null"]:
        return st.none() | st.lists(number(node["items"]), max_size=6)
    if kind == "boolean":
        return st.booleans()
    if kind == "array":
        return st.lists(value(name, node["items"], csv_path), min_size=node["minItems"], max_size=node["minItems"] + 2)
    if kind == "object":
        return fields(node, csv_path)
    if name == "model":
        return st.sampled_from([*cli._FIT_MODELS, "no_such_model"])
    if name == "data_csv":
        return st.sampled_from([csv_path, csv_path + ".missing"])
    raise AssertionError(f"no strategy for {name}: {node}")


def fields(node, csv_path):
    """A subset of an object's properties, each with a schema-valid value."""
    props = node.get("properties", {})
    return st.fixed_dictionaries({}, optional={k: value(k, v, csv_path) for k, v in props.items()})


def out_of_range(node):
    """Values the schema refuses for a field of this definition, as far as it has bounds."""
    node = resolve(node)
    bad = ["text", [1.0], {"a": 1}]
    if "minimum" in node:
        bad.append(node["minimum"] - 1)
    if "exclusiveMinimum" in node:
        bad.append(node["exclusiveMinimum"])
    if "maximum" in node:
        bad.append(node["maximum"] + 1)
    if node.get("type") == "integer":
        bad.append(1.5)
    if node.get("type") in ("number", ["number", "null"]):
        bad += [math.nan, math.inf, -math.inf]
    return bad


@st.composite
def configs(draw, csv_path):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    params_def = DEFS[f"{experiment}_params"]
    network_def = DEFS[NETWORKS[experiment]]
    # the realization count is always drawn: its defaults (100-200) are not small
    config = {"experiment": experiment, "realizations": draw(value("realizations", SCHEMA["properties"]["realizations"], csv_path))}
    config.update(draw(fields({"properties": {"seed": SCHEMA["properties"]["seed"]}}, csv_path)))
    config["params"] = draw(fields(params_def, csv_path))
    config["network"] = draw(fields(network_def, csv_path))
    if experiment == "concentration" and draw(st.booleans()):
        config["params"].setdefault("gamma_exp_mhz", draw(number({})))
    if draw(st.booleans()):
        # one field out of range, or one the experiment does not take
        where = draw(st.sampled_from(["top", "params", "network"]))
        target, props = {
            "top": (config, {k: SCHEMA["properties"][k] for k in ("seed", "realizations")}),
            "params": (config["params"], params_def.get("properties", {})),
            "network": (config["network"], network_def.get("properties", {})),
        }[where]
        name = draw(st.sampled_from([*props, "unknown_field"]))
        target[name] = draw(st.sampled_from(out_of_range(props[name]) if name in props else [1.0]))
    return config


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "data.csv"
    path.write_text(FIT_CSV)
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def test_every_run_exits_0_2_or_3(csv_path, run_dir):
    path = run_dir / "config.json"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs(csv_path))
    def check(config):
        path.write_text(json.dumps(config))
        with mock.patch.object(fitkit, "worker_count", lambda n: 2):
            code = cli.main(["run", str(path), "--out", str(run_dir / "out"), "--quiet"])
        assert code in (0, 2, 3), config
        assert multiprocessing.active_children() == []

    check()


# Configs on which the property test once found an uncaught exception, with
# the exit code each now gives
FOUND = [
    # a density whose number density underflows to 0, in the network and in the calibration
    ({"experiment": "deer", "params": {"n_bath": 2}, "network": {"densities_ppm": {"P1": 5e-324}}}, 2),
    ({"experiment": "concentration", "params": {"calibration_densities_ppm": [5e-324, 1.0], "gamma_exp_mhz": 0.5}}, 2),
    # NaN and Infinity, which Python's JSON reader accepts and no schema bound refuses
    ({"experiment": "protocol", "params": {"n_p1": 6}, "network": {"disorder_mhz": math.inf}}, 2),
    ({"experiment": "rabi", "params": {"omega_mhz": math.nan}}, 2),
    # a linewidth too narrow for a finite rate cutoff
    ({"experiment": "diffusion", "realizations": 1, "params": {"gamma_mhz": 5e-324}}, 3),
    # relaxation so fast that the data, or a mode decay, overflow
    ({"experiment": "crossover", "realizations": 2, "params": {"n_p1": 6, "t1rho_dark_us": 1e-323}}, 3),
    ({"experiment": "protocol", "params": {"n_p1": 4, "t1rho_dark_us": 3.740630224316167e-138}}, 3),
    # a polarization so small that its SEM has no finite reciprocal
    ({"experiment": "crossover", "realizations": 3, "params": {"n_p1": 6, "p_nv0": 3.158472690093709e-249}}, 3),
    # a K that underflows to 0
    ({"experiment": "concentration", "realizations": 2,
      "params": {"addressed_fraction": 5e-324, "gamma_exp_mhz": 0.5, "calibration_densities_ppm": [2.0, 6.0]}}, 3),
    # boxes too large for a lattice index or for a finite volume
    ({"experiment": "deer", "realizations": 1, "network": {"densities_ppm": {"P1": 2.9e-285}}}, 3),
    ({"experiment": "concentration", "realizations": 1,
      "params": {"calibration_densities_ppm": [1.1e-308, 1.0], "gamma_exp_mhz": 0.5}}, 3),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config, code", FOUND)
def test_found_configs_exit_2_or_3(tmp_path, capsys, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with mock.patch.object(fitkit, "worker_count", lambda n: 2):
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == code
    assert capsys.readouterr().err.startswith("numeric failure: " if code == 3 else "error: config field ")
    assert multiprocessing.active_children() == []
