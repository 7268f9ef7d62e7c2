import contextlib
import json
import math
from decimal import Decimal, InvalidOperation

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parkfun.report import RunReport, _conforms, report_schema, validate_report


def test_round_trip():
    report = RunReport("park", {"mode": "classical"}, {"status": "success"}, 1.5)
    data = json.loads(report.to_json())
    assert RunReport.from_dict(data) == report


def test_equality_is_within_the_class():
    report = RunReport("park", {}, {}, 1.5)
    assert report != report.to_dict()
    assert report.__eq__(report.to_dict()) is NotImplemented


def test_schema_accepts_valid():
    report = {"command": "count", "inputs": {}, "result": {"formula": 192}, "elapsed_ms": 0.2}
    assert _conforms(report, report_schema())
    validate_report(report)


@pytest.mark.parametrize(
    "bad",
    [
        {"command": "x", "inputs": {}, "result": {}},  # missing elapsed_ms
        {"command": "x", "inputs": {}, "result": {}, "elapsed_ms": -1},
        {"command": "x", "inputs": {}, "result": {}, "elapsed_ms": 1, "extra": 1},
        {"command": 3, "inputs": {}, "result": {}, "elapsed_ms": 1},
        {"command": "x", "inputs": [], "result": {}, "elapsed_ms": 1},
    ],
)
def test_schema_rejects_invalid(bad):
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)


@pytest.mark.parametrize(
    "elapsed",
    [float("nan"), float("inf"), Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")],
)
def test_non_finite_elapsed_is_refused(elapsed):
    doc = {"command": "x", "inputs": {}, "result": {}, "elapsed_ms": elapsed}
    # Draft-7 alone lets it through, or for a Decimal NaN raises
    # decimal.InvalidOperation from its `minimum` check.
    with contextlib.suppress(InvalidOperation):
        assert jsonschema.Draft7Validator(report_schema()).is_valid(doc)
    with pytest.raises(jsonschema.ValidationError, match="elapsed_ms .* is not finite"):
        validate_report(doc)
    with pytest.raises(jsonschema.ValidationError):
        RunReport.from_dict(doc)


@pytest.mark.parametrize("elapsed", [float("nan"), float("inf"), float("-inf")])
def test_to_json_never_writes_non_finite_numbers(elapsed):
    with pytest.raises(ValueError):
        RunReport("x", {}, {}, elapsed).to_json()


def test_schema_is_self_describing():
    schema = report_schema()
    assert schema["required"] == ["command", "inputs", "result", "elapsed_ms"]


SCHEMA = report_schema()
MISSING = object()

# Stand-ins for a field: a wrong type, a bool, a negative, a non-finite
# number, or no field at all.
WRONG = st.sampled_from(
    [MISSING, None, True, False, -1, -0.5, -0.0, float("nan"), float("inf"),
     float("-inf"), "1", [], {}]
)
OBJECTS = st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)
FIELDS = {
    "command": st.text(max_size=5),
    "inputs": OBJECTS,
    "result": OBJECTS,
    "elapsed_ms": st.integers(0, 10 ** 30) | st.floats(0, 1e12),
}


@st.composite
def near_reports(draw):
    """Documents near the schema: a valid report with up to two fields
    spoiled or an extra key, or now and then no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(WRONG | OBJECTS)
    doc = {name: draw(valid) for name, valid in FIELDS.items()}
    for name in draw(st.lists(st.sampled_from([*FIELDS, "extra"]), max_size=2)):
        value = draw(WRONG) if name in FIELDS else 1
        if value is MISSING:
            doc.pop(name, None)
        else:
            doc[name] = value
    return doc


@given(near_reports())
@example({"command": "x", "inputs": {}, "result": {}, "elapsed_ms": True})
@example({"command": "x", "inputs": {}, "result": {}, "elapsed_ms": float("nan")})
@example({"command": "x", "inputs": {}, "result": {}, "elapsed_ms": float("inf")})
def test_conforms_only_what_jsonschema_accepts(doc):
    # The reference: draft-7 accepts the document and its elapsed_ms is
    # finite, which draft-7 cannot express.
    accepted = jsonschema.Draft7Validator(SCHEMA).is_valid(doc) and math.isfinite(doc["elapsed_ms"])
    if _conforms(doc, SCHEMA):
        assert accepted
    try:
        validate_report(doc)
    except jsonschema.ValidationError:
        assert not accepted
    else:
        assert accepted


@pytest.mark.parametrize("elapsed", [True, float("nan"), float("inf")])
def test_conforms_leaves_bools_and_non_finite_numbers_to_jsonschema(elapsed):
    assert not _conforms({"command": "x", "inputs": {}, "result": {}, "elapsed_ms": elapsed}, SCHEMA)


@pytest.mark.parametrize(
    "schema",
    [
        {**SCHEMA, "maxProperties": 9},  # a keyword it does not read
        {**SCHEMA, "properties": {**SCHEMA["properties"], "command": {"type": "integer"}}},
        {**SCHEMA, "additionalProperties": {"type": "string"}},
    ],
)
def test_conforms_leaves_what_it_does_not_read_to_jsonschema(schema):
    report = {"command": "x", "inputs": {}, "result": {}, "elapsed_ms": 1}
    assert not _conforms(report, schema)
