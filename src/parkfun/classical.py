"""The classical parking process.

Cars 1..n enter in order; car i drives to its preferred spot and parks in
the first unoccupied spot at or after it, or fails if none exists. This is
the friendship process with every car a friend of every other, and it runs
on the same kernel.
"""

from __future__ import annotations

from .core import Failure, ParkingPreference, ParkOutcome
from .friendship import _park


def _all_friends(n: int) -> tuple[frozenset[int], ...]:
    """Friend sets that make the friendship process the classical one.

    One shared set for every car, so the cost stays O(n) at any size.
    """
    return (frozenset(range(1, n + 1)),) * (n + 1)


def classical_park(p: ParkingPreference) -> ParkOutcome:
    """Simulate the classical process for `p`.

    >>> classical_park(ParkingPreference((3, 1, 1, 2))).outcome.word
    (2, 3, 1, 4)
    """
    return _park(p.entries, p.n, _all_friends(p.n))


def is_parking_function(p: ParkingPreference) -> bool:
    """Membership via the non-decreasing rearrangement test.

    `p` parks all cars exactly when its sorted entries satisfy a_i <= i.
    Deliberately independent of the simulation so the two can cross-check.
    """
    return all(e <= i for i, e in enumerate(sorted(p.entries), start=1))


def total_displacement(outcome: ParkOutcome) -> int:
    """Sum of the displacement vector of a successful outcome."""
    if isinstance(outcome, Failure):
        raise ValueError(f"car {outcome.car} failed to park; no displacement is defined")
    return sum(outcome.displacement)
