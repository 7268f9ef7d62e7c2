"""Cyclic parking functions and permutation components.

A preference is cyclic when its classical outcome is an increasing rotation
i, i+1, ..., n, 1, ..., i-1. These are counted by factorial sums, and they
biject onto permutation components: send a cyclic preference to the
component, in the permutation realising its displacement vector as an
inversion sequence, that contains the car parked in spot 1. Displacements
map to inversion numbers under this correspondence.

Only the functions that simulate import `classical` and `friendship`, so the
closed forms and psi_inverse load neither.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .core import (
    ParkingPreference, Permutation, Success, _require_ints, _require_label, _require_size, _Value, _Word,
    inverse_position,
)
from .cycle import _rotation_size, _weighted_rotation_sum, increasing_word
from .limits import _clip_word, _shown, ensure_sweep_within_cap
from .notation import format_word_compact


class NotCyclicPreference(ValueError):
    """The classical outcome of the preference is not an increasing rotation."""


class InversionSequence(_Word):
    """Non-negative integers with entries[i] < i (1-indexed)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        super().__init__(tuple(entries))
        _require_ints(self.entries, "entry")
        for idx, a in enumerate(self.entries, start=1):
            if not 0 <= a < idx:
                raise ValueError(f"entry {_shown(a)} at position {idx} must lie in [0, {idx - 1}]")


class Component(_Value):
    """A minimal block of a permutation occupying its own value interval.

    The subword at positions start..end is a permutation of the values
    start..end, and no proper prefix of it closes an interval of its own.
    Identity is the (underlying, start) pair: equal subwords inside
    different host permutations are distinct components.
    """

    __slots__ = _fields = ("underlying", "start", "end")

    def __init__(self, underlying: Permutation, start: int, end: int):
        super().__init__(underlying, start, end)
        n = self.underlying.n
        if not 1 <= self.start <= self.end <= n:
            raise ValueError(f"positions {_shown(self.start)}..{_shown(self.end)} are outside [1, {n}]")
        sub = self.underlying.word[self.start - 1 : self.end]
        if sorted(sub) != list(range(self.start, self.end + 1)):
            raise ValueError(
                f"positions {self.start}..{self.end} of {_clip_word(self.underlying.word)} "
                "do not hold exactly the values of that interval"
            )
        for pos, running in enumerate(accumulate(sub[:-1], max), start=self.start):
            if running == pos:
                raise ValueError(
                    f"block {self.start}..{self.end} is not minimal: "
                    f"it closes already at position {pos}"
                )

    @property
    def word(self) -> tuple[int, ...]:
        return self.underlying.word[self.start - 1 : self.end]

    @property
    def size(self) -> int:
        return self.end - self.start + 1


def components(perm: Permutation) -> list[Component]:
    """Decompose a permutation into its components, left to right.

    Cut after position j whenever the running maximum equals j.

    >>> [c.word for c in components(Permutation((3, 1, 2, 4, 8, 6, 5, 7)))]
    [(3, 1, 2), (4,), (8, 6, 5, 7)]
    """
    out = []
    start = 1
    for j, running in enumerate(accumulate(perm.word, max), start=1):
        if running == j:
            out.append(Component(perm, start, j))
            start = j + 1
    return out


def inversion_number(value: int, perm: Permutation) -> int:
    """How many smaller values appear after `value` in the word."""
    return sum(1 for x in perm.word[inverse_position(perm, value) :] if x < value)


def inv_seq(perm: Permutation) -> InversionSequence:
    """Per-value inversion counts, as a sequence indexed by value.

    >>> inv_seq(Permutation((4, 1, 5, 3, 2))).entries
    (0, 0, 1, 3, 2)
    """
    counts = [0] * (perm.n + 1)
    # Scan right to left: everything already seen lies to the right.
    seen: list[int] = []
    for v in reversed(perm.word):
        counts[v] = sum(1 for x in seen if x < v)
        seen.append(v)
    return InversionSequence(tuple(counts[1:]))


def perm_from_inv_seq(a: InversionSequence | Sequence[int]) -> Permutation:
    """The unique permutation whose inversion counts equal `a`.

    Built by inserting the values 1..n in turn, each with its count of
    letters to its right.

    >>> perm_from_inv_seq((0, 0, 1, 3, 2)).word
    (4, 1, 5, 3, 2)
    """
    if not isinstance(a, InversionSequence):
        a = InversionSequence(tuple(a))
    word: list[int] = []
    for value, count in enumerate(a.entries, start=1):
        word.insert(len(word) - count, value)
    return Permutation(tuple(word))


def _rotation_start(word: tuple[int, ...]) -> int | None:
    """i when `word` is the increasing rotation from i, else None."""
    i = word[0]
    return i if word == increasing_word(i, len(word)) else None


def is_cyclic_pf(p: ParkingPreference) -> int | None:
    """Starting value i when the classical outcome is the increasing rotation
    from i; None when the process fails or parks in any other pattern."""
    from .classical import classical_park

    res = classical_park(p)
    return _rotation_start(res.outcome.word) if isinstance(res, Success) else None


def cyclic_fibre_size(start: int, n: int) -> int:
    """Number of preferences whose classical outcome is the increasing
    rotation from `start`: (n+1-start)! * (start-1)!."""
    _require_label("start", start, n)
    return _rotation_size(start, n)


def cyclic_total_count(n: int) -> int:
    """Total number of cyclic parking functions: the rotation fibre sizes
    summed over every start.

    >>> [cyclic_total_count(n) for n in range(1, 6)]
    [1, 3, 10, 40, 192]
    """
    _require_size("n", n, 1, "need n >= 1")
    return _weighted_rotation_sum(n, lambda i: 1)


def _psi(p: ParkingPreference) -> tuple[Success, Component, list[Component]]:
    """The classical outcome of `p`, its image under psi and every component
    of the host permutation, from one simulation and one decomposition."""
    from .classical import classical_park

    res = classical_park(p)
    if not isinstance(res, Success):
        raise NotCyclicPreference(f"car {res.car} cannot park; not a parking function")
    word = res.outcome.word
    i = _rotation_start(word)
    if i is None:
        raise NotCyclicPreference(
            f"outcome {_clip_word(word, format_word_compact)} is not an increasing cycle"
        )
    comps = components(perm_from_inv_seq(res.displacement))
    # The components partition 1..n, so exactly one of them holds i.
    c = next(c for c in comps if c.start <= i <= c.end)
    return res, c, comps


def psi(p: ParkingPreference) -> Component:
    """Map a cyclic preference to its permutation component.

    Runs the classical process, realises the displacement vector as an
    inversion sequence, and returns the component of the resulting
    permutation containing the starting value (the car in spot 1).
    """
    return _psi(p)[1]


def _psi_inverse(c: Component) -> tuple[ParkingPreference, InversionSequence]:
    """psi_inverse(c) and the host's inversion sequence, from one inv_seq pass."""
    host = c.underlying
    n = host.n
    i = c.start
    seq = inv_seq(host)
    entries = tuple((j - i) % n + 1 - count for j, count in enumerate(seq.entries, start=1))
    return ParkingPreference(entries), seq


def psi_inverse(c: Component) -> ParkingPreference:
    """The unique cyclic preference mapping to component `c`.

    Car j ends up in spot (j - i) mod n + 1, where value j sits in the
    increasing rotation from i = min value of the component; its preference
    is that spot minus its inversion number in the host permutation.
    """
    return _psi_inverse(c)[0]


def _cyclic_sweep(n: int, force: bool) -> Iterator[tuple[int, ...]]:
    """Entries of every cyclic preference of length n, lexicographically.

    The cap is read before the friend sets and the n increasing rotations
    are built, so a refused n builds neither.
    """
    from .classical import _all_friends
    from .friendship import _sweep

    _require_size("n", n, 1, "need n >= 1")
    ensure_sweep_within_cap(n, force)
    rotations = {increasing_word(i, n) for i in range(1, n + 1)}
    for entries, word in _sweep(n, _all_friends(n), force=True):
        if word in rotations:
            yield entries


def enumerate_cyclic_pf(n: int, *, force: bool = False) -> Iterator[ParkingPreference]:
    """All cyclic parking functions of length n, lexicographically.

    Exhaustive sweep over [n]^n, subject to the brute-force cap. Every swept
    word is in [n]^n, so the items skip the constructor's checks.

    >>> [p.entries for p in enumerate_cyclic_pf(2)]
    [(1, 1), (1, 2), (2, 1)]
    """
    for entries in _cyclic_sweep(n, force):
        yield ParkingPreference._unchecked(entries)


def count_cyclic_brute(n: int, *, force: bool = False) -> int:
    """Number of cyclic parking functions by exhaustive simulation."""
    return sum(1 for _ in _cyclic_sweep(n, force))
