import contextlib
import json
import math
from decimal import Decimal, InvalidOperation

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parkfun.report import InvalidReport, RunReport, report_schema, validate_report


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
    with pytest.raises(InvalidReport):
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
    with pytest.raises(InvalidReport, match="elapsed_ms .* is not finite"):
        validate_report(doc)
    with pytest.raises(InvalidReport):
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

# A value of each draft-7 type the schema uses.
SAMPLES = {"string": "x", "object": {}, "number": 1}


def _refusal(doc) -> str:
    """The message `validate_report` refuses `doc` with."""
    with pytest.raises(InvalidReport) as refused:
        validate_report(doc)
    return str(refused.value)


def test_schema_file_and_checker_agree():
    """The checker does not read the schema file, so each keyword the file
    uses is held here to what the checker does: an edit to one without the
    other fails on every run."""
    assert SCHEMA.keys() == {
        "$schema", "title", "description", "type", "required", "properties", "additionalProperties"
    }
    assert SCHEMA["type"] == "object"
    assert _refusal([]) == "[] is not of type 'object'"
    properties = SCHEMA["properties"]
    valid = {name: SAMPLES[field["type"]] for name, field in properties.items()}
    validate_report(valid)
    # Every field is required, and the first one missing is named.
    assert SCHEMA["required"] == list(properties)
    for i, name in enumerate(properties):
        assert _refusal(dict(list(valid.items())[:i])) == f"{name!r} is a required property"
    for name, field in properties.items():
        assert field.keys() <= {"type", "minimum"}
        for kind, sample in SAMPLES.items():
            if kind == field["type"]:
                validate_report({**valid, name: sample})
            else:
                assert _refusal({**valid, name: sample}).endswith(f" is not of type {field['type']!r}")
        if field["type"] == "number":
            least = field.get("minimum", -1)
            validate_report({**valid, name: least})
            if "minimum" in field:
                message = _refusal({**valid, name: least - 0.5})
                assert message == f"{least - 0.5!r} is less than the minimum of {least!r}"
    assert SCHEMA["additionalProperties"] is False
    assert _refusal({**valid, "extra": 1}).startswith("Additional properties are not allowed")


def _report(**fields):
    """A valid report with `fields` set, or dropped where given as MISSING."""
    doc = {"command": "x", "inputs": {}, "result": {}, "elapsed_ms": 1, **fields}
    return {name: value for name, value in doc.items() if value is not MISSING}


# One row per kind of fault, with its exact message.
MESSAGES = [
    ([], "[] is not of type 'object'"),
    ("x" * 100, "'" + "x" * 39 + "... (102 characters) is not of type 'object'"),
    (_report(command=MISSING), "'command' is a required property"),
    (_report(inputs=MISSING), "'inputs' is a required property"),
    (_report(result=MISSING), "'result' is a required property"),
    (_report(elapsed_ms=MISSING), "'elapsed_ms' is a required property"),
    (_report(extra=1), "Additional properties are not allowed ('extra' was unexpected)"),
    (_report(b=1, a=2), "Additional properties are not allowed ('a', 'b' were unexpected)"),
    (_report(command=3), "3 is not of type 'string'"),
    (_report(inputs=[]), "[] is not of type 'object'"),
    (_report(result="x"), "'x' is not of type 'object'"),
    (_report(elapsed_ms="1"), "'1' is not of type 'number'"),
    (_report(elapsed_ms=True), "True is not of type 'number'"),
    (_report(elapsed_ms=-1), "-1 is less than the minimum of 0"),
    (_report(elapsed_ms=-0.5), "-0.5 is less than the minimum of 0"),
    (_report(elapsed_ms=float("nan")), "elapsed_ms nan is not finite"),
    (_report(elapsed_ms=float("inf")), "elapsed_ms inf is not finite"),
    (_report(elapsed_ms=float("-inf")), "elapsed_ms -inf is not finite"),
    (_report(elapsed_ms=Decimal("NaN")), "elapsed_ms Decimal('NaN') is not finite"),
    (_report(elapsed_ms=Decimal("sNaN")), "elapsed_ms Decimal('sNaN') is not finite"),
    (_report(elapsed_ms=Decimal("Infinity")), "elapsed_ms Decimal('Infinity') is not finite"),
]


@pytest.mark.parametrize("doc, message", MESSAGES)
def test_message_names_the_fault(doc, message):
    assert _refusal(doc) == message
    if "is not finite" not in message and "characters)" not in message:
        # A fault draft-7 can state, with no value clipped, is stated in its words.
        assert [e.message for e in jsonschema.Draft7Validator(SCHEMA).iter_errors(doc)] == [message]


@pytest.mark.parametrize(
    "doc, message",
    [
        (_report(command=10 ** 5000), "an int of 5001 digits is not of type 'string'"),
        (_report(inputs=10 ** 5000), "an int of 5001 digits is not of type 'object'"),
        (_report(elapsed_ms=-10 ** 5000), "a negative int of 5001 digits is less than the minimum of 0"),
        ([10 ** 5000], "a list that holds an int past the 4300-digit limit is not of type 'object'"),
        (_report(elapsed_ms=1j), "1j is not of type 'number'"),
        ({**_report(), 10 ** 5000: 1}, "Additional properties are not allowed (an int of 5001 digits was unexpected)"),
    ],
    ids=[
        "long-command", "long-inputs", "long-negative-elapsed", "list-of-a-long-int", "complex-elapsed",
        "long-extra-key",
    ],
)
def test_message_names_what_repr_cannot_print(doc, message):
    """An int past Python's 4,300-digit int-to-str limit, which repr refuses,
    is named by its digits, and a complex elapsed_ms is refused as no
    number. jsonschema raises on each (repr's ValueError, or a TypeError
    from comparing a complex), so it is no reference here."""
    assert _refusal(doc) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        (_report(elapsed_ms=MISSING, extra=1), "'elapsed_ms' is a required property"),
        (_report(command=3, extra=1), "Additional properties are not allowed ('extra' was unexpected)"),
        # jsonschema 4.26's best_match names `result` here.
        (_report(inputs=[], result=3), "[] is not of type 'object'"),
    ],
)
def test_first_fault_is_named(doc, message):
    """Of several faults the first is named: a missing field, then extra
    keys, then a wrong type, field by field in the schema's order."""
    assert _refusal(doc) == message


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
    # The whole contract: the checker accepts exactly when draft-7 accepts
    # the document and its elapsed_ms is finite, which draft-7 cannot express.
    accepted = jsonschema.Draft7Validator(SCHEMA).is_valid(doc) and math.isfinite(doc["elapsed_ms"])
    try:
        validate_report(doc)
    except InvalidReport:
        assert not accepted
    else:
        assert accepted
