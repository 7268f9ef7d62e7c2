"""Serialisable run reports for CLI invocations."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass
class RunReport:
    command: str
    inputs: dict
    result: dict
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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


def validate_report(data: dict) -> None:
    """Raise jsonschema.ValidationError when `data` is not a RunReport.

    jsonschema is imported here, not at module level, so that only callers
    that validate pay for loading it.
    """
    import jsonschema

    jsonschema.validate(data, report_schema())
