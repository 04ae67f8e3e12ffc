"""The run-config schema check of spinnet.cli against jsonschema as its
oracle: the same configs refused, a field named that jsonschema also
finds, and on the configs the CLI tests write, the field that the
jsonschema-based check named."""

import copy
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_cli
import test_exit_codes
from spinnet import ConfigError, cli

SCHEMA = cli._load_schema()
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
SCHEMA_FILE = Path(cli.__file__).parent / "schemas" / "runconfig.schema.json"


def jsonschema_failures(config) -> dict:
    """(keyword, field) -> message of every error jsonschema finds; an
    unexpected or missing key is named by itself, as the CLI names it."""
    failures = {}
    for err in VALIDATOR.iter_errors(config):
        path = tuple(err.absolute_path)
        if err.validator == "additionalProperties":
            keys = set(err.instance) - set(err.schema.get("properties", {}))
        elif err.validator == "required":
            # one error per missing key, which its message names
            keys = {k for k in err.validator_value if err.message == f"{k!r} is a required property"}
        else:
            keys = {None}
        for key in keys:
            failures[err.validator, path if key is None else (*path, key)] = err.message
    return failures


def jsonschema_field(config):
    """The field the jsonschema-based check of validate_config named, None when it found nothing."""
    key = lambda e: (e.validator != "required", *jsonschema.exceptions.relevance(e))
    err = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(config), key=key)
    if err is None:
        return None
    path = list(err.absolute_path)
    if err.validator == "additionalProperties":
        path.append(sorted(set(err.instance) - set(err.schema.get("properties", {})))[0])
    if err.validator == "required":
        path.append(next(k for k in err.validator_value if k not in err.instance))
    return "/".join(str(p) for p in path) or "<root>"


def named_field(config):
    """The field validate_config names for a schema failure, None when the schema takes the config."""
    if not list(cli._check(config, SCHEMA)):
        return None
    with pytest.raises(ConfigError) as info:
        cli.validate_config(config)
    message = str(info.value)
    assert message.startswith("config field ")
    return message.removeprefix("config field ").split(": ", 1)[0]


def assert_parity(config):
    theirs = jsonschema_failures(config)
    ours = {(f.keyword, f.path): f for f in cli._check(config, SCHEMA)}
    assert set(ours) == set(theirs), config
    for where, failure in ours.items():
        # scalars keep jsonschema's wording; objects and arrays are named by their JSON type
        if failure.message != theirs[where] and failure.keyword != "not":
            assert failure.message.startswith(("an object ", "an array ")), (failure, theirs[where])
    field = named_field(config)
    assert (field is None) == (not theirs)
    if field is not None:
        assert field in {"/".join(str(p) for p in path) or "<root>" for _, path in theirs}


def marked_rows(test):
    """The argument rows of ``test``'s one parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def cli_test_configs() -> list:
    """The configs the tests of test_cli.py and test_exit_codes.py write."""
    one = test_cli.one_realization
    configs = [
        {"experiment": "rabi", "params": {"omega_mhz": 5.0}},
        {"experiment": "deer", "network": {"densities_ppm": {"P1": -2.0}}},
        {"experiment": "deer", "network": {"densities_ppm": {"P1": 500000.0}}},
        {"experiment": "teleport"},
        {"experiment": "rabi", "params": {"omega_mhz": -3.0}},
        {"experiment": "protocol", "params": [1], "network": {}},
    ]
    configs += [{"experiment": e, **one(e), "network": network} for e, network, _ in test_cli.IGNORED_NETWORK_FIELDS]
    for e, at_cap, above, _ in test_cli.SIZE_CAPS:
        configs += [{"experiment": e, "params": at_cap}, {"experiment": e, "realizations": 1, "params": above}]
    draws_nothing = {"rabi": {"n_points": 16}, "fit": {"model": "exp_saturation", "data_csv": "d.csv"}}
    configs += [{"experiment": e, field: 9, "params": draws_nothing[e]} for e in draws_nothing for field in ("seed", "realizations")]
    for e, params, typo in marked_rows(test_cli.test_misspelt_param_is_config_error):
        bad = dict(list(params.items())[:-1]) | {typo: list(params.values())[-1]}
        configs += [{"experiment": e, "params": params}, {"experiment": e, "params": bad}]
    for e, params, field in marked_rows(test_cli.test_out_of_range_param_is_config_error):
        configs.append({"experiment": e, **one(e), field.split("/")[0]: params})
    configs += [config for config, _ in marked_rows(test_cli.test_validate_refuses_what_run_refuses)]
    configs += [config[0] if isinstance(config, tuple) else config for config, _ in test_exit_codes.FOUND]
    return configs


def config_id(config) -> str:
    """A test id from the whole config text, so that no two configs share one."""
    return json.dumps(config)


def test_cli_test_config_ids_are_unique():
    # pytest renumbers clashing ids, which renames a test that was not touched
    ids = [config_id(config) for config in cli_test_configs()]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("config", cli_test_configs(), ids=config_id)
def test_cli_test_configs_name_the_field_they_named(config):
    resolved = cli.resolve_config(config)
    assert_parity(resolved)
    assert named_field(resolved) == jsonschema_field(resolved)


# Values a mutation writes: wrong types, numbers at and past every bound of
# the schema, non-finite numbers, and nests deeper than any field takes
SPOILERS = [
    "text", "", True, None, [], [1.0], [[2]], {}, {"a": 1}, [[[[[[[[1]]]]]]]], {"a": {"b": {"c": {}}}},
    -1, 0, 0.5, 1, 1.0, 1.5, 2, 4, 31, 32, 33, 3000, 3001.0, 6400, 6401, 10**30, -1e-300, 1e308,
    math.nan, math.inf, -math.inf,
]
UNKNOWN_KEYS = ["unknown_field", "P2", "box_nm", "seed", "realizations", "params", "network", "experiment"]


def valid_config(experiment, csv):
    extra = {"concentration": {"gamma_exp_mhz": 0.5}, "fit": {"model": "exp_saturation", "data_csv": csv}}
    config = cli.resolve_config({"experiment": experiment, "params": extra.get(experiment, {})})
    assert not list(cli._check(config, SCHEMA))
    return config


def locations(value):
    """(parent, key) of every value inside ``value``."""
    found = []
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found += [(value, key), *locations(item)]
    return found


@st.composite
def mutated_configs(draw):
    """A valid resolved config with one to four mutations: a value replaced
    by a wrong type or an out-of-range number, a key added that its object
    does not take, a key removed, or the experiment swapped."""
    experiment = draw(st.sampled_from(test_exit_codes.EXPERIMENTS))
    config = valid_config(experiment, "data.csv")
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["replace", "add", "remove", "experiment"]))
        if kind == "experiment":
            config["experiment"] = draw(st.sampled_from([*test_exit_codes.EXPERIMENTS, "teleport", 5]))
            continue
        spots = locations(config)
        if kind in ("replace", "remove") and spots:
            parent, key = draw(st.sampled_from(spots))
            if kind == "remove" and isinstance(parent, dict):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(draw(st.sampled_from(SPOILERS)))
        elif kind == "add":
            objects = [config] + [p[k] for p, k in spots if isinstance(p[k], dict)]
            target = draw(st.sampled_from(objects))
            target[draw(st.sampled_from(UNKNOWN_KEYS))] = copy.deepcopy(draw(st.sampled_from(SPOILERS)))
    return config


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_configs_are_refused_as_jsonschema_refuses_them(config):
    assert_parity(config)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(test_exit_codes.configs("data.csv"))
def test_exit_code_configs_are_refused_as_jsonschema_refuses_them(config):
    assert_parity(cli.resolve_config(config))


# The schema keywords cli._check implements, and the annotations it reads past
CHECKED = {
    "type", "enum", "const", "minimum", "maximum", "exclusiveMinimum", "minLength", "items", "minItems",
    "uniqueItems", "properties", "additionalProperties", "required", "allOf", "if", "then", "not", "$ref",
}
ANNOTATIONS = {"$schema", "title", "description", "default", "definitions"}


def schema_keywords(node) -> set:
    """Every keyword in the schema ``node``, read from the JSON as draft 7
    places subschemas: under if, then, not and items, as the members of
    allOf, and as the values of properties and definitions.  Forms the
    check does not implement count as keywords of their own: a subschema
    that is not an object (a boolean schema, ``items`` as an array) by its
    repr, and so an ``additionalProperties`` other than true or false."""
    if not isinstance(node, dict):
        return {repr(node)}
    found = set(node)
    if not isinstance(node.get("additionalProperties", False), bool):
        found.add(f"additionalProperties: {node['additionalProperties']!r}")
    subschemas = [node[k] for k in ("if", "then", "not", "items") if k in node]
    subschemas += [*node.get("allOf", ()), *node.get("properties", {}).values(), *node.get("definitions", {}).values()]
    for sub in subschemas:
        found |= schema_keywords(sub)
    return found


def test_every_schema_keyword_is_one_the_check_implements():
    # a keyword the check does not implement would be accepted and ignored
    used = schema_keywords(json.loads(SCHEMA_FILE.read_text()))
    assert used <= CHECKED | ANNOTATIONS, sorted(used - CHECKED - ANNOTATIONS)


@pytest.mark.parametrize(
    "schema, unchecked",
    [
        ({"type": "string", "pattern": "^a"}, {"pattern"}),
        ({"properties": {"a": {"else": {}}}}, {"else"}),
        ({"definitions": {"d": {"anyOf": [{}]}}}, {"anyOf"}),
        ({"allOf": [{"not": {"format": "uri"}}]}, {"format"}),
        ({"items": [{"type": "string"}]}, {"[{'type': 'string'}]"}),
        ({"not": True}, {"True"}),
        ({"additionalProperties": {"type": "string"}}, {"additionalProperties: {'type': 'string'}"}),
    ],
)
def test_a_keyword_the_check_does_not_implement_is_found(schema, unchecked):
    # the guard above sees every form the check would accept and ignore
    assert schema_keywords(schema) - CHECKED - ANNOTATIONS == unchecked


@pytest.mark.parametrize(
    "value, node, messages",
    [
        # scalars keep jsonschema's wording
        (-1, {"type": "integer", "minimum": 0}, ["-1 is less than the minimum of 0"]),
        (1.5, {"type": "integer", "minimum": 2}, ["1.5 is not of type 'integer'", "1.5 is less than the minimum of 2"]),
        (0, {"exclusiveMinimum": 0}, ["0 is less than or equal to the minimum of 0"]),
        (None, {"type": ["number", "null"], "maximum": 1}, []),
        (True, {"type": "number"}, ["True is not of type 'number'"]),
        (2.0, {"type": "integer"}, []),
        (1, {"enum": ["a", "b"]}, ["1 is not one of ['a', 'b']"]),
        ("", {"minLength": 1}, ["'' should be non-empty"]),
        (3, {"not": {"type": "integer"}}, ["3 should not be valid under {'type': 'integer'}"]),
        # objects and arrays are named by their JSON type
        ({"a": [1]}, {"type": "integer"}, ["an object is not of type 'integer'"]),
        ([[1]], {"type": "array", "minItems": 2}, ["an array is too short"]),
        ([], {"type": "array", "minItems": 1}, ["an array should be non-empty"]),
        # 1 and 1.0 are one JSON number, true and 1 are not
        ([1, 1.0], {"uniqueItems": True}, ["an array has non-unique elements"]),
        ([[1, {"a": 2}], [1.0, {"a": 2.0}]], {"uniqueItems": True}, ["an array has non-unique elements"]),
        ([True, 1, False, 0], {"uniqueItems": True}, []),
        ([1, 1], {"uniqueItems": False}, []),
        ({"a": 1, "b": 2}, {"additionalProperties": False}, ["Additional properties are not allowed ('a', 'b' were unexpected)"] * 2),
        ({"x": 1}, {"if": {"required": ["x"]}, "then": {"properties": {"x": {"const": "y"}}}}, ["'y' was expected"]),
        ({}, {"if": {"required": ["x"]}, "then": {"properties": {"x": {"const": "y"}}}}, []),
    ],
)
def test_check_messages(value, node, messages):
    assert [f.message for f in cli._check(value, node)] == messages
    theirs = {e.message for e in jsonschema.Draft7Validator(node).iter_errors(value)}
    # jsonschema prints an object or array whole
    assert {m for m in messages if not m.startswith(("an object ", "an array "))} == {
        m for m in theirs if not m.startswith(("{", "["))
    }


@pytest.mark.parametrize(
    "config, field",
    [
        # at equal depth, the field first in the config, not in the schema
        ({"experiment": "deer", "params": {"bath_pi": 1, "n_bath": "x"}}, "params/bath_pi"),
        ({"experiment": "deer", "network": {"placement": "grid"}, "params": {"bath_pi": 1}}, "network/placement"),
        # the schema checks params as an object before the rabi clause refuses seed
        ({"experiment": "rabi", "seed": 1, "params": 5}, "seed"),
        # a key an object does not take is a failure of the object, one level up
        ({"experiment": "deer", "params": {"n_bath": "x", "oops": 1}}, "params/oops"),
        # a wrong value before a missing key, however deep
        ({"experiment": "concentration", "params": {"calibration_densities_ppm": [1.0, -1]}},
         "params/calibration_densities_ppm/1"),
        # every clause requires the experiment, so none applies to a config that lacks it
        ({"seed": 1, "realizations": 2}, "experiment"),
    ],
)
def test_naming_rule(config, field):
    assert named_field(config) == field


def test_no_setting_is_written_inline_in_two_parameter_objects():
    # a setting that two experiments take (the cycle of protocol and
    # crossover, the bath size of deer and hahn, the drive of diffusion and
    # protocol) has one node in the definitions, to which both refer, so
    # that neither copy can drift from the other
    owners = {}
    for owner, node in SCHEMA["definitions"].items():
        if owner.endswith("_params"):
            for name, prop in node["properties"].items():
                if "$ref" not in prop:
                    owners.setdefault((name, json.dumps(prop, sort_keys=True)), []).append(owner)
    repeated = {name: found for (name, _), found in owners.items() if len(found) > 1}
    assert not repeated, f"settings written inline in two parameter objects: {repeated}"
