"""The friendship parking process, and the one simulation kernel.

Cars follow the classical rules, but a spot only counts as available when
each occupied neighbouring spot holds a car adjacent to the arriving car in
the friendship graph. The boundary spots 0 and n+1 are treated as
permanently unoccupied. The classical process is the case where every car
is a friend of every other, so `_run` simulates both.

`_sweep` is the one exhaustive sweep of [n]^n: every brute-force count and
listing, here, in `cyclic` and in `verify`, is a filter over its stream.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, Mapping, Sequence

from .core import (
    Failure,
    FriendshipGraph,
    ParkingPreference,
    ParkOutcome,
    Permutation,
    Success,
    _require_label,
    _require_order,
    _require_size,
    _Word,
)
from .limits import ensure_sweep_within_cap


class LotState(_Word):
    """Occupancy snapshot of the car park: cell s-1 holds the car in spot s, or None."""

    __slots__ = _fields = ("occupancy",)

    def __init__(self, occupancy: tuple[int | None, ...]):
        super().__init__(tuple(occupancy))
        cars = [c for c in self.occupancy if c is not None]
        for car in cars:
            _require_label("car", car, self.n)
        if len(cars) != len(set(cars)):
            raise ValueError("a car may occupy at most one spot")

    @classmethod
    def empty(cls, n: int) -> "LotState":
        return cls.with_cars(n, {})

    @classmethod
    def with_cars(cls, n: int, cars_at: Mapping[int, int]) -> "LotState":
        """Build a state from a {spot: car} mapping."""
        _require_size("n", n, 0, "a lot needs n >= 0 spots")
        cells: list[int | None] = [None] * n
        for spot, car in cars_at.items():
            _require_label("spot", spot, n)
            cells[spot - 1] = car
        return cls(tuple(cells))

    def car_at(self, spot: int) -> int | None:
        _require_label("spot", spot, self.n)
        return self.occupancy[spot - 1]

    def place(self, spot: int, car: int) -> "LotState":
        if self.car_at(spot) is not None:
            raise ValueError(f"spot {spot} is already occupied")
        cells = list(self.occupancy)
        cells[spot - 1] = car
        return LotState(tuple(cells))


def is_available(state: LotState, graph: FriendshipGraph, car: int, spot: int) -> bool:
    """Can `car` park in `spot` given the current occupancy?

    True iff the spot is unoccupied and each occupied neighbouring spot holds
    a friend of `car`; spots 0 and n+1 count as always empty. This is the
    reference statement of the rule, which `_run` inlines for speed.
    """
    _require_order("the lot", state.n, "spots", graph.n)
    _require_label("spot", spot, state.n)
    friends = graph.neighbors(car)
    occ = (None,) + state.occupancy + (None,)
    return occ[spot] is None and all(
        c is None or c in friends for c in (occ[spot - 1], occ[spot + 1])
    )


def _run(entries: Sequence[int], n: int, neighbor_sets) -> tuple[int, ...] | int:
    """Park cars 1..n in order: the one simulation kernel.

    `neighbor_sets[car]` is the friend set of `car`. Returns the outcome word
    read off the lot (the car in each spot) or, when a car cannot park, that
    car's label. The availability test is inlined in the scan on purpose:
    this loop is the hot path of every sweep. `entries` must hold exactly
    n preferences; they are read in car order.
    """
    occ = [0] * (n + 2)
    car = 0
    for k in entries:
        car += 1
        friends = neighbor_sets[car]
        while k <= n:
            if not occ[k]:
                left = occ[k - 1]
                if not left or left in friends:
                    right = occ[k + 1]
                    if not right or right in friends:
                        occ[k] = car
                        break
            k += 1
        else:
            return car
    return tuple(occ[1 : n + 1])


def _park(entries: Sequence[int], n: int, neighbor_sets) -> ParkOutcome:
    """Run the kernel and build the public outcome, with displacements."""
    word = _run(entries, n, neighbor_sets)
    if isinstance(word, int):
        return Failure(word)
    spot_of_car = [0] * (n + 1)
    for spot, car in enumerate(word, start=1):
        spot_of_car[car] = spot
    displacement = tuple(spot_of_car[car] - entries[car - 1] for car in range(1, n + 1))
    return Success(Permutation(word), displacement)


def friendship_park(p: ParkingPreference, graph: FriendshipGraph) -> ParkOutcome:
    """Simulate the friendship process for `p` on `graph`."""
    _require_order("preference", p.n, "cars", graph.n)
    return _park(p.entries, p.n, graph._neighbors)


def is_friendship_pf(p: ParkingPreference, graph: FriendshipGraph) -> bool:
    return isinstance(friendship_park(p, graph), Success)


def _sweep(
    n: int, neighbor_sets, force: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The exhaustive sweep of [n]^n behind every brute-force count and listing.

    Yields (entries, outcome word) for every preference on which all cars
    park, in lexicographic order. The cap applies to the nominal n^n.
    """
    ensure_sweep_within_cap(n, force)
    for entries in itertools.product(range(1, n + 1), repeat=n):
        word = _run(entries, n, neighbor_sets)
        if not isinstance(word, int):
            yield entries, word


def enumerate_fpf(graph: FriendshipGraph, *, force: bool = False) -> Iterator[ParkingPreference]:
    """All friendship parking functions for `graph`, lexicographically.

    Brute-force sweep over [n]^n, refused above the configured cap unless
    `force` is set. Every swept word is in [n]^n, so the items skip the
    constructor's checks.

    >>> [p.entries for p in enumerate_fpf(FriendshipGraph(3, [(1, 2), (2, 3)]))]
    [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3), (3, 2, 1)]
    """
    for entries, _ in _sweep(graph.n, graph._neighbors, force):
        yield ParkingPreference._unchecked(entries)


def count_fpf_brute(graph: FriendshipGraph, *, force: bool = False) -> int:
    """Number of friendship parking functions, by exhaustive simulation."""
    return sum(1 for _ in _sweep(graph.n, graph._neighbors, force))


def brute_fibre_counts(
    graph: FriendshipGraph, *, force: bool = False
) -> Counter[tuple[int, ...]]:
    """Outcome word -> number of preferences reaching it, by one full sweep."""
    return Counter(word for _, word in _sweep(graph.n, graph._neighbors, force))
