"""`parkfun validate-report`: check a RunReport JSON object read from stdin
against the schema."""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .limits import _MAX_DIGITS, _clip
from .report import InvalidReport, validate_report

if TYPE_CHECKING:
    from decimal import Decimal


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """No arguments beyond --json: the report comes on stdin."""


def _finite(text: str) -> float:
    """A JSON number, or a NaN or Infinity that strict JSON lacks, as a
    float, refused unless finite (1e999 reads as infinity)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{_clip(text)} is not a finite number")
    return value


def _integer(text: str) -> int | Decimal:
    """A JSON integer: an int up to the digit limit, and past it a Decimal,
    which is as exact and reads its text in linear time, where int() takes
    quadratic time."""
    if len(text) <= _MAX_DIGITS:
        return int(text)
    from decimal import Decimal

    return Decimal(text)


def run(args, say) -> tuple[dict, dict, int]:
    inputs = {"source": "stdin"}
    try:
        data = json.load(sys.stdin, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        say(f"error: not JSON: {e}")
        return inputs, {"valid": False, "error": str(e)}, 1
    try:
        validate_report(data)
    except InvalidReport as e:
        say(f"error: {e}")
        return inputs, {"valid": False, "error": str(e)}, 1
    say("ok")
    return inputs, {"valid": True}, 0
