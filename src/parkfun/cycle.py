"""Closed forms for the cycle graph.

The Hamiltonian paths of the cycle graph are the rotations read forwards
(increasing) or backwards (decreasing) from some starting value. Their
fibre sizes, and hence the total count of cycle friendship parking
functions, have closed forms; the three-vertex cycle needs one replacement
in the decreasing case because there every pair of vertices is adjacent.
"""

from __future__ import annotations

import operator
from enum import Enum
from math import factorial
from typing import Callable, Iterator

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


def _split_rotation_sum(lo: int, hi: int, n: int, weight: Callable[[int], int]) -> tuple[int, int, int]:
    """(P, Q, T) over the starts lo..hi-1, halved down to single starts:
    P = prod j, Q = prod (n+1-j) and T / Q = sum of weight(i) * prod j / (n+1-j)
    over the j before i. Halves merge as P1*P2, Q1*Q2 and T1*Q2 + P1*T2, so
    each multiplication pairs two ints of about the same size."""
    if hi - lo == 1:
        return lo, n + 1 - lo, weight(lo) * (n + 1 - lo)
    mid = (lo + hi) // 2
    p1, q1, t1 = _split_rotation_sum(lo, mid, n, weight)
    p2, q2, t2 = _split_rotation_sum(mid, hi, n, weight)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _weighted_rotation_sum(n: int, weight: Callable[[int], int]) -> int:
    """The sum of weight(i) * r(i) for i = 1..n (n >= 1), by binary splitting.

    r(1) = n! and r(i+1) = r(i) * i / (n+1-i); Q over all of 1..n is n!, so
    the whole range's T is the sum itself."""
    return _split_rotation_sum(1, operator.index(n) + 1, n, weight)[2]


def _increasing_weight(i: int) -> int:
    # 3 * _increasing_fibre_size(i, r) / r, so the summed weights divide by 3 once.
    return 3 if i <= 3 else i


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
    increasing = _exact_div3(_weighted_rotation_sum(n, _increasing_weight))
    return increasing + sum(_decreasing_fibre_size(i, n) for i in range(1, n + 1))
