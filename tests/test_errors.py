"""The field checker that every JSON record and config mapping goes through."""

import json
import math
import re
from pathlib import Path

import pytest

from askner.config import parse_config
from askner.errors import ConfigError, DataError, PipelineError, check_fields
from askner.metrics import RetrievalJudgments
from askner.perceptron import AveragedPerceptronTagger
from askner.retrieval import ingest_results
from testutil import phrase

_ACCEPTED = [
    ("a string", ""), ("a string", "x"),
    ("a non-empty string", "x"),
    ("an integer", 0), ("an integer", -3), ("an integer", 10**400),
    ("a finite number", 1), ("a finite number", -2.5), ("a finite number", 0.0),
    ("a finite number", 1.7976931348623157e308), ("a finite number", -(2**1023)),
    ("a boolean", True), ("a boolean", False),
    ("an array", []), ("an array", [1, "a"]),
    ("an object", {}), ("an object", {"a": 1}),
]
_REJECTED = [
    ("a string", 1), ("a string", None), ("a string", ["x"]),
    ("a non-empty string", ""), ("a non-empty string", 5),
    ("an integer", True), ("an integer", False), ("an integer", 1.0), ("an integer", "1"),
    ("a finite number", True), ("a finite number", False), ("a finite number", "1"),
    ("a finite number", 10**400), ("a finite number", -(10**400)),
    ("a finite number", math.nan), ("a finite number", math.inf),
    ("a finite number", -math.inf), ("a finite number", None),
    ("a boolean", 0), ("a boolean", 1), ("a boolean", "true"),
    ("an array", {}), ("an array", "ab"), ("an array", None),
    ("an object", []), ("an object", "a"), ("an object", None),
]
_SCHEMA = {"a": "an integer", "b": "a string", "c": "a boolean"}


@pytest.mark.parametrize(
    "obj, schema, outcome",
    [({"f": value}, {"f": kind}, [value]) for kind, value in _ACCEPTED]
    + [({"f": value}, {"f": kind}, f"f must be {kind}, got {value!r}")
       for kind, value in _REJECTED]
    + [
        ({"c": True, "b": "x", "a": 1, "z": None}, _SCHEMA, [1, "x", True]),
        # the first field missing in schema order, before any field's kind
        ({"c": 5}, _SCHEMA, "missing field 'a'"),
        ({"a": True, "c": 5}, _SCHEMA, "missing field 'b'"),
        # then the first field not of its kind, in schema order
        ({"c": 5, "b": 5, "a": True}, _SCHEMA, "a must be an integer, got True"),
        ({"c": 5, "b": 5, "a": 1}, _SCHEMA, "b must be a string, got 5"),
        # a value that is not an object is named by its type
        ([1, 2], _SCHEMA, "expected an object, got list"),
        ("a", _SCHEMA, "expected an object, got str"),
        (None, _SCHEMA, "expected an object, got NoneType"),
        (True, _SCHEMA, "expected an object, got bool"),
    ],
    ids=lambda v: v[:50] if isinstance(v, str) else None,
)
def test_check_fields(obj, schema, outcome):
    if isinstance(outcome, list):
        values = check_fields(obj, "r:1", schema)
        assert values == outcome
        # nothing is coerced: an integer stays an integer, even as a number
        assert [type(v) for v in values] == [type(v) for v in outcome]
    else:
        with pytest.raises(DataError) as e:
            check_fields(obj, "r:1", schema)
        assert str(e.value) == f"r:1: {outcome}"
        with pytest.raises(ConfigError, match="^" + re.escape(f"r:1: {outcome}") + "$"):
            check_fields(obj, "r:1", schema, ConfigError)


def _fault(read) -> PipelineError:
    with pytest.raises(PipelineError) as e:
        read()
    return e.value


@pytest.mark.parametrize(
    "value, kind",
    [(True, "an integer"), (math.nan, "a finite number"), (10**400, "a finite number")],
    ids=["true", "nan", "int-1e400"],
)
def test_every_reader_words_a_bad_value_alike(value, kind):
    integer = kind == "an integer"
    result = dict(phrase().to_record(), **{"rank" if integer else "score": value})
    state = {"tags": ["O"], "ticks": 1, "params": [["b", "O", 1.0, 1.0, 1]]}
    if integer:
        state["ticks"] = value
    else:
        state["params"][0][2] = value
    config = {
        "corpus": "c.jsonl",
        "retrieval": {"mode": "remote", "endpoint": "http://x/"},
        "types": [{"name": "city", "labels": ["city"]}],
    }
    if integer:
        config["seed"] = value
    else:
        config["retrieval"]["timeout"] = value
    faults = [
        _fault(lambda: ingest_results([json.dumps(result)], source="r")),
        _fault(lambda: AveragedPerceptronTagger().restore(json.dumps(state).encode())),
        _fault(lambda: parse_config(config, base_dir=Path("."))),
    ]
    if integer:
        judgment = json.dumps({"question_id": "q", "rank": value, "correct": True})
        faults.append(_fault(lambda: RetrievalJudgments.from_lines([judgment], source="j")))
    tails = [str(e)[str(e).index(" must be "):] for e in faults]
    assert tails == [f" must be {kind}, got {value!r}"] * len(faults)
    assert [type(e) for e in faults] == [DataError, DataError, ConfigError, DataError][:len(faults)]
