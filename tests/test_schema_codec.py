"""The instance schema and the instance loader agree.

Single-value corruptions of generated instance files are checked with
``jsonschema`` and loaded with ``load_instance``. A file the schema
rejects must make the loader raise ``ValueError``; a file the loader
refuses although the schema accepts it must break one of the semantic
rules listed below, which the schema does not express.

Python's ``re.search``, which ``jsonschema`` uses for ``pattern``, lets
``$`` match before a final newline, where the ECMA-262 patterns of the
schema do not; the replacement strings therefore carry no newline.
"""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conethom.instances import GenConfig, InstanceFile, generate, load_instance
from conethom.scalars import DIGIT_LIMIT

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "instance.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

CONFIGS = (GenConfig(m=2, n=2, seed=3), GenConfig(m=3, n=2, seed=9, t_degree=1))
FILES = tuple(InstanceFile(data=generate(config), config=config).to_obj() for config in CONFIGS)

# replacement values by the JSON kind of the value they replace
REPLACEMENTS = {
    int: (-1, 0, 1, 2, 3, 62, 32767, 32768, 2**64, 0.5, 2.0, True, None, "1"),
    str: (
        "", "x", "x1", "y1", "t", "s", "dx1", "dx2", "dy1", "e1", "e2", "dx0", "e3",
        "dx+1", "dx 1", "dx１", "dx1_0", "dx01", "e+1",
        "3/4", "-3/4", "03/4", "+3/4", " 3/4", "3/ 4", "３/4", "3/+4", "3_0/4", "3/0", "1/-2", "3",
        # digit runs past Python's int(str) limit: both sides bound them
        "1" * 5000 + "/1", "1/" + "1" * 5000, "dx" + "1" * 5000, "e" + "1" * 5000,
    ),
    list: ([], [1], ["dx1"], ["e1"], [[{}, "1/1"]], [{}, "1/1"]),
    dict: (
        {}, {"x1": 1}, {"y1": 1}, {"t": 1}, {"s": -1}, {"x1": 0}, {"x9": 1},
        {"gauss": 0, "d": [], "e": [], "coeff": []},
    ),
}
ANY = tuple(value for values in REPLACEMENTS.values() for value in values)
KEYS = ("x1", "y1", "t", "s", "x0", "x+1", "x１", "z", "colour", "gauss", "d", "e", "coeff", "m", "seed")

# loader refusals of files the schema admits: each names a rule of the
# data the schema does not express
SEMANTIC_RULES = {
    "skewness": r"not skew",
    "closed twist": r"twist form is not closed",
    "twist is a base 2-form": r"twist form must be a base 2-form",
    "twist free of t": r"may not depend on the family parameter t",
    "matrix entries are base forms": r"is not a base [01]-form|depends on fiber variable|carries the unit s",
    "matrix shape": r"must be an n x n matrix|has the wrong length",
    "generator outside the chart": r"is not a (fiber )?generator of this chart|is not declared in this table",
    "generator bound m + n <= 62": r"m \+ n exceeds",
    "seed fits in 64 bits": r"seed must fit in 64 bits",
    "positive denominator": r"denominator must be positive",
    # JSON Schema's integer admits 2.0; the loader reads numbers exactly
    "integral float": r"is not an integer",
}


def _slots(node, out):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        out.append((node, key))
        _slots(value, out)
    return out


@st.composite
def corrupted_files(draw):
    obj = copy.deepcopy(draw(st.sampled_from(FILES)))
    container, key = draw(st.sampled_from(_slots(obj, [])))
    action = draw(st.sampled_from(("same kind", "any kind", "rename")))
    if action == "rename" and isinstance(container, dict):
        container[draw(st.sampled_from(KEYS))] = container.pop(key)
    else:
        pool = REPLACEMENTS[type(container[key])] if action == "same kind" else ANY
        container[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    return obj


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt") / "inst.json"


@settings(max_examples=300, deadline=None)
@given(corrupted_files())
def test_schema_rejections_and_loader_refusals_agree(path, obj):
    path.write_text(json.dumps(obj))
    schema_ok = VALIDATOR.is_valid(obj)
    try:
        load_instance(path)
    except ValueError as exc:
        if schema_ok:
            message = str(exc)
            assert any(re.search(rule, message) for rule in SEMANTIC_RULES.values()), message
    else:
        assert schema_ok, f"loaded a file the schema rejects: {next(VALIDATOR.iter_errors(obj)).message}"


# one digit run past Python's int(str) limit in each bounded slot
LONG_DIGIT_RUNS = {
    "rational": (lambda o, v: o["omega"][0]["coeff"][0].__setitem__(1, v), "1" * 5000 + "/1"),
    "one-form name": (lambda o, v: o["omega"][0]["d"].__setitem__(0, v), "dx" + "1" * 5000),
    "fiber name": (lambda o, v: o["omega"][0].__setitem__("e", [v]), "e" + "1" * 5000),
}


@pytest.mark.parametrize("slot", LONG_DIGIT_RUNS)
def test_long_digit_runs_fail_both_sides_by_the_same_bound(path, slot):
    put, value = LONG_DIGIT_RUNS[slot]
    obj = copy.deepcopy(FILES[0])
    put(obj, value)
    path.write_text(json.dumps(obj))
    assert not VALIDATOR.is_valid(obj)
    with pytest.raises(ValueError, match=f"1 to {DIGIT_LIMIT} digits"):
        load_instance(path)
