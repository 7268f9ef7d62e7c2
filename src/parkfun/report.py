"""Serialisable run reports for CLI invocations."""

from __future__ import annotations

import json
import math


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


# The keywords `_conforms` reads, then the annotations it skips.
_KNOWN = {"type", "required", "properties", "additionalProperties", "minimum",
          "$schema", "title", "description"}


def _conforms(data, schema: dict) -> bool:
    """True only when `data` plainly satisfies `schema`: objects, strings and
    finite numbers under the keywords in `_KNOWN`. False means "not vouched
    for", not "invalid": jsonschema judges the rest, a bool as a number or a
    keyword this does not read included."""
    if not schema.keys() <= _KNOWN:
        return False
    kind = schema.get("type")
    if kind == "string":
        return type(data) is str
    if kind == "number":
        finite = type(data) is int or (type(data) is float and math.isfinite(data))
        return finite and ("minimum" not in schema or data >= schema["minimum"])
    if kind != "object" or type(data) is not dict:
        return False
    properties = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    return (
        all(name in data for name in schema.get("required", ()))
        and (extra is True or (extra is False and data.keys() <= properties.keys()))
        and all(_conforms(data[name], sub) for name, sub in properties.items() if name in data)
    )


def validate_report(data: dict) -> None:
    """Raise jsonschema.ValidationError when `data` is not a RunReport, or
    when its elapsed_ms is NaN or infinite, which the schema cannot rule out.

    jsonschema is imported only for a report that `_conforms` does not
    vouch for, so that a valid report does not pay for loading it.
    """
    schema = report_schema()
    if _conforms(data, schema):
        return
    import jsonschema

    try:
        jsonschema.validate(data, schema)
    except ArithmeticError:  # decimal.InvalidOperation: `minimum` cannot order a Decimal NaN
        raise jsonschema.ValidationError(f"elapsed_ms {data['elapsed_ms']} is not finite") from None
    elapsed = data["elapsed_ms"]
    # NaN is the one value unequal to itself, and -inf already fails `minimum`;
    # comparing, unlike math.isfinite, cannot overflow on a huge int.
    if elapsed != elapsed or elapsed == math.inf:
        raise jsonschema.ValidationError(f"elapsed_ms {elapsed} is not finite")
