"""Serialisable run reports for CLI invocations."""

from __future__ import annotations

import json
import math
import numbers

from .limits import _clip, _shown


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
        return {name: getattr(self, name) for name in _FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        validate_report(data)
        return cls(**{name: data[name] for name in _FIELDS})


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


def validate_report(data: dict) -> None:
    """Raise InvalidReport unless `data` is a RunReport under the schema,
    with a finite elapsed_ms, which draft-7 cannot require. The message keeps
    jsonschema's wording, shows a value it repeats by `limits._shown`, and
    names the first fault of: not an object, a missing field, extra keys, a
    field of the wrong type, a non-finite elapsed_ms, a negative one."""
    if not isinstance(data, dict):
        raise InvalidReport(f"{_shown(data)} is not of type 'object'")
    for name in _FIELDS:
        if name not in data:
            raise InvalidReport(f"{name!r} is a required property")
    # jsonschema's order and reprs, clipped as one list; a key that is not a
    # string, which no JSON text holds, is shown by `_shown` in both, as str
    # and repr refuse an int past the digit limit.
    extra = sorted(data.keys() - _FIELDS.keys(), key=lambda key: key if isinstance(key, str) else _shown(key))
    if extra:
        names = _clip(", ".join(repr(key) if isinstance(key, str) else _shown(key) for key in extra))
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
