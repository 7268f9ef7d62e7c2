"""Serialisable run reports for CLI invocations."""

from __future__ import annotations

import json
import math
import numbers

from .limits import _MAX_DIGITS, _clip


class RunReport:
    def __init__(self, command: str, inputs: dict, result: dict, elapsed_ms: float):
        self.command = command
        self.inputs = inputs
        self.result = result
        self.elapsed_ms = elapsed_ms

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.to_dict() == other.to_dict()
        return NotImplemented

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        validate_report(data)
        return cls(
            command=data["command"],
            inputs=data["inputs"],
            result=data["result"],
            elapsed_ms=data["elapsed_ms"],
        )


def report_schema() -> dict:
    from importlib import resources

    text = resources.files("parkfun").joinpath("schemas/runreport.schema.json").read_text()
    return json.loads(text)


# The fields of schemas/runreport.schema.json and their draft-7 types, in
# its order; a test holds the two equal.
_FIELDS = {"command": "string", "inputs": "object", "result": "object", "elapsed_ms": "number"}
_TYPES = {"string": str, "object": dict, "number": numbers.Number}


class InvalidReport(ValueError):
    """A document that is not a RunReport; the message names its first fault."""


def _is_finite(number) -> bool:
    """Whether a draft-7 number is finite. An int always is, and math.isfinite
    would overflow on a huge one; a Decimal, a Number but not a Real, says so
    itself, as comparing its signalling NaN raises."""
    if isinstance(number, numbers.Rational):
        return True
    if isinstance(number, numbers.Real):
        return math.isfinite(number)
    return number.is_finite()


def _digits(number: int) -> int:
    """How many decimal digits `abs(number)` has, found without printing it."""
    number = abs(number)
    # 0.30102999 < log10(2), so this count is never over, and below 10^8
    # bits at most one short.
    digits = max(number.bit_length() - 1, 0) * 30102999 // 10 ** 8 + 1
    while number >= 10 ** digits:
        digits += 1
    return digits


def _shown(value) -> str:
    """`repr(value)` clipped by `_clip`. An int past the digit limit, which
    repr refuses, is named by its sign and its number of digits, and a value
    that holds one by its type."""
    if isinstance(value, int) and (digits := _digits(value)) > _MAX_DIGITS:
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
    try:
        text = repr(value)
    except ValueError:  # CPython's int-to-str limit, met inside `value`
        return f"a {type(value).__name__} that holds an int past the {_MAX_DIGITS}-digit limit"
    return _clip(text)


def validate_report(data: dict) -> None:
    """Raise InvalidReport unless `data` is a RunReport under the schema,
    with a finite elapsed_ms, which draft-7 cannot require. The message keeps
    jsonschema's wording, clips a value it repeats by `_shown`, and names the
    first fault of: not an object, a missing field, extra keys, a field of
    the wrong type, a non-finite elapsed_ms, a negative one."""
    if not isinstance(data, dict):
        raise InvalidReport(f"{_shown(data)} is not of type 'object'")
    for name in _FIELDS:
        if name not in data:
            raise InvalidReport(f"{name!r} is a required property")
    extra = sorted(data.keys() - _FIELDS.keys(), key=str)
    if extra:
        names = _clip(", ".join(map(repr, extra)))
        verb = "was" if len(extra) == 1 else "were"
        raise InvalidReport(f"Additional properties are not allowed ({names} {verb} unexpected)")
    for name, kind in _FIELDS.items():
        value = data[name]
        # Draft-7 counts no bool as a number, though Python's bool is an int,
        # and JSON has no complex number.
        if not isinstance(value, _TYPES[kind]) or (kind == "number" and isinstance(value, (bool, complex))):
            raise InvalidReport(f"{_shown(value)} is not of type {kind!r}")
    elapsed = data["elapsed_ms"]
    if not _is_finite(elapsed):
        raise InvalidReport(f"elapsed_ms {_shown(elapsed)} is not finite")
    if elapsed < 0:
        raise InvalidReport(f"{_shown(elapsed)} is less than the minimum of 0")
