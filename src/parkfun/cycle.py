"""Closed forms for the cycle graph.

The Hamiltonian paths of the cycle graph are the rotations read forwards
(increasing) or backwards (decreasing) from some starting value. Their
fibre sizes, and hence the total count of cycle friendship parking
functions, have closed forms; the three-vertex cycle needs one replacement
in the decreasing case because there every pair of vertices is adjacent.
"""

from __future__ import annotations

from enum import Enum
from math import factorial
from typing import Iterator

from .core import Permutation, _require_label, _Value


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class CyclicOutcome(_Value):
    """A rotation outcome on the cycle graph: direction, starting value, size."""

    __slots__ = _fields = ("direction", "start", "n")

    def __init__(self, direction: Direction, start: int, n: int):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "n", n)
        if self.n < 3:
            raise ValueError("cycle outcomes need n >= 3")
        _require_label("start", self.start, self.n)


def increasing_word(start: int, n: int) -> tuple[int, ...]:
    """start, start+1, ..., n, 1, ..., start-1 (defined for any n >= 1)."""
    _require_label("start", start, n)
    return tuple(range(start, n + 1)) + tuple(range(1, start))


def decreasing_word(start: int, n: int) -> tuple[int, ...]:
    """start, start-1, ..., 1, n, n-1, ..., start+1."""
    _require_label("start", start, n)
    return tuple(range(start, 0, -1)) + tuple(range(n, start, -1))


def expand_cyclic(c: CyclicOutcome) -> Permutation:
    """The explicit one-line permutation of a rotation outcome."""
    if c.direction is Direction.INCREASING:
        return Permutation(increasing_word(c.start, c.n))
    return Permutation(decreasing_word(c.start, c.n))


def cyclic_outcomes(n: int) -> Iterator[CyclicOutcome]:
    """All 2n rotation outcomes: increasing then decreasing, by start."""
    # CyclicOutcome refuses n < 3 too, but for n < 1 none is ever built.
    if n < 3:
        raise ValueError("cycle outcomes need n >= 3")
    for direction in (Direction.INCREASING, Direction.DECREASING):
        for start in range(1, n + 1):
            yield CyclicOutcome(direction, start, n)


def _exact_div3(value: int) -> int:
    # i! for i >= 4 is always divisible by 3; guard against transcription slips.
    quotient, remainder = divmod(value, 3)
    if remainder:
        raise ArithmeticError(f"{value} is not divisible by 3")
    return quotient


def _rotation_size(start: int, n: int) -> int:
    """r(start) = (n+1-start)! * (start-1)!, the classical fibre of the increasing rotation."""
    return factorial(n + 1 - start) * factorial(start - 1)


def _rotation_sizes(n: int) -> Iterator[int]:
    """_rotation_size(i, n) for i = 1..n, each one exact ratio from the last,
    so that no term multiplies two large factorials."""
    size = factorial(n)
    for i in range(1, n + 1):
        yield size
        size = size * i // (n + 1 - i)


def _increasing_fibre_size(i: int, rotation_size: int) -> int:
    # From start 4 on, the fibre is (n-i+1)! * i! / 3, that is i * r(i) / 3.
    return rotation_size if i <= 3 else _exact_div3(i * rotation_size)


def _decreasing_fibre_size(i: int, n: int) -> int:
    if i == n:
        return 1
    if i == n - 1:
        return n
    # i <= n-2; on three vertices the largest value never blocks, which
    # drops one factor from the product.
    if n == 3:
        return i + 1
    return (i + 1) * (i + 2)


def cycle_fibre_size(c: CyclicOutcome) -> int:
    """Closed-form fibre size of a rotation outcome on the cycle graph."""
    if c.direction is Direction.DECREASING:
        return _decreasing_fibre_size(c.start, c.n)
    return _increasing_fibre_size(c.start, _rotation_size(c.start, c.n))


def cycle_total_count(n: int) -> int:
    """Total number of friendship parking functions on the n-vertex cycle:
    the closed-form fibre sizes summed over all 2n rotation outcomes.

    >>> cycle_total_count(7)
    8710
    """
    if n < 3:
        raise ValueError("the cycle graph needs n >= 3")
    sizes = enumerate(_rotation_sizes(n), start=1)
    return sum(_increasing_fibre_size(i, r) + _decreasing_fibre_size(i, n) for i, r in sizes)
