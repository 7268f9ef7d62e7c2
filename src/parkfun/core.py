"""Shared value types: parking preferences, permutations, friendship graphs
and parking outcomes.

Cars, spots and vertices are 1-indexed throughout. All types are immutable
after construction.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .limits import _clip_word, _quote, _read_int, _shown


def _require_ints(values: tuple, what: str) -> None:
    """Reject anything but plain ints; bool and float are not labels."""
    if list(map(type, values)).count(int) != len(values):
        idx, bad = next((i, v) for i, v in enumerate(values, start=1) if type(v) is not int)
        raise ValueError(f"{what} {_shown(bad)} at position {idx} is not an integer")


def _require_label(what: str, v: int, n: int) -> None:
    """Reject a label (value, vertex, spot, start) outside [1, n]."""
    if not 1 <= v <= n:
        raise ValueError(f"{what} {_shown(v)} is outside [1, {_shown(n)}]")


class _Value:
    """Immutable value: equality (within one class), hash and repr over
    `_fields`. Copying and unpickling call the constructor again, so every
    copy passes the constructor's checks."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class _Word(_Value):
    """A value whose one field is a word, a tuple of letters (integers, or
    None for an empty cell): `n`, `len()` and iteration all read that word."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(getattr(self, self._fields[0]))


class ParkingPreference(_Word):
    """A vector of preferred spots, one entry per car, each in [1, n].

    Any vector in [n]^n is allowed; actually *being* a parking function is a
    property tested by the parking operations, not a type invariant, so that
    the processes can run on failing inputs too.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Iterable[int]):
        object.__setattr__(self, "entries", tuple(entries))
        n = len(self.entries)
        if n == 0:
            raise ValueError("preference must have at least one entry")
        _require_ints(self.entries, "entry")
        for idx, e in enumerate(self.entries, start=1):
            if not 1 <= e <= n:
                raise ValueError(f"entry {_shown(e)} at position {idx} is outside [1, {n}]")


class Permutation(_Word):
    """A permutation of [n] in one-line notation.

    `word[k]` is the value in position k+1; as a parking outcome, position s
    holds the label of the car that ended up in spot s.
    """

    __slots__ = _fields = ("word",)

    def __init__(self, word: tuple[int, ...]):
        object.__setattr__(self, "word", tuple(word))
        n = len(self.word)
        if n == 0:
            raise ValueError("permutation must be non-empty")
        _require_ints(self.word, "value")
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"{_clip_word(self.word)} is not a permutation of [1, {n}]")


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def inverse_position(perm: Permutation, value: int) -> int:
    """Position (1-indexed) of `value` in the permutation word.

    >>> inverse_position(Permutation((2, 3, 1, 4)), 1)
    3
    """
    _require_label("value", value, perm.n)
    return perm.word.index(value) + 1


class FriendshipGraph(_Value):
    """Simple undirected graph on vertex set [n].

    An edge {u, v} declares that cars u and v may occupy adjacent spots.
    Edges are stored canonically as (min, max) pairs; adjacency queries are
    O(1) via per-vertex neighbour sets.
    """

    __slots__ = ("n", "edges", "_neighbors")
    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "n", n)
        if type(self.n) is not int:
            raise ValueError(f"vertex count {_shown(self.n)} is not an integer")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canonical = set()
        for e in edges:
            u, v = e
            for w in (u, v):
                if type(w) is not int:
                    raise ValueError(f"vertex {_shown(w)} is not an integer")
                _require_label("vertex", w, self.n)
            if u == v:
                raise ValueError(f"self-loop at vertex {_shown(u)}")
            canonical.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canonical))
        nbr = [set() for _ in range(self.n + 1)]
        for u, v in canonical:
            nbr[u].add(v)
            nbr[v].add(u)
        object.__setattr__(self, "_neighbors", tuple(frozenset(s) for s in nbr))

    def adjacent(self, u: int, v: int) -> bool:
        _require_label("vertex", u, self.n)
        _require_label("vertex", v, self.n)
        return v in self._neighbors[u]

    def neighbors(self, v: int) -> frozenset[int]:
        _require_label("vertex", v, self.n)
        return self._neighbors[v]


make_graph = FriendshipGraph


class Success(_Value):
    """All cars parked: the outcome permutation plus per-car displacement."""

    __slots__ = _fields = ("outcome", "displacement")

    def __init__(self, outcome: Permutation, displacement: tuple[int, ...]):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "displacement", tuple(displacement))
        if len(self.displacement) != self.outcome.n:
            raise ValueError("displacement length must match the outcome")
        if any(d < 0 for d in self.displacement):
            raise ValueError("displacements are non-negative")


class Failure(_Value):
    """The first car that exited unable to park."""

    __slots__ = _fields = ("car",)

    def __init__(self, car: int):
        object.__setattr__(self, "car", car)


ParkOutcome = Success | Failure


make_preference = ParkingPreference


def graph_generator(family: str, size: int) -> FriendshipGraph:
    """Build a named graph family: "cycle", "complete" or "path".

    Cycles need size >= 3; the other families need size >= 1.
    """
    if family == "cycle":
        if size < 3:
            raise ValueError("cycle graphs need at least 3 vertices")
        edges = [(i, i + 1) for i in range(1, size)] + [(size, 1)]
        return make_graph(size, edges)
    if family == "complete":
        if size < 1:
            raise ValueError("complete graphs need at least 1 vertex")
        return make_graph(size, itertools.combinations(range(1, size + 1), 2))
    if family == "path":
        if size < 1:
            raise ValueError("path graphs need at least 1 vertex")
        return make_graph(size, ((i, i + 1) for i in range(1, size)))
    raise ValueError(f"unknown graph family {_quote(family)}")


def _graph_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph_header(text: str) -> int:
    """The vertex count in the `n <count>` header of the plain-text graph
    format, read without parsing any edge, so that a caller can check the
    size before a graph is built."""
    for lineno, line in _graph_lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[0] != "n":
            raise ValueError(f"line {lineno}: expected header 'n <count>', got {_quote(line)}")
        where = f"line {lineno}"
        return _read_int(parts[1], where, lambda: f"{where}: vertex count {_quote(parts[1])} is not an integer")
    raise ValueError("graph file has no 'n <count>' header")


def parse_graph_text(text: str) -> FriendshipGraph:
    """Parse the plain-text graph format.

    First meaningful line is `n <count>`, then one edge per line as `u v`.
    Blank lines and lines starting with '#' are ignored.
    """
    n = parse_graph_header(text)
    edges = []
    lines = _graph_lines(text)
    next(lines)  # the header
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {_quote(line)}")
        where = f"line {lineno}"
        u, v = (
            _read_int(part, where, lambda: f"{where}: edge endpoints must be integers, got {_quote(line)}")
            for part in parts
        )
        edges.append((u, v))
    return make_graph(n, edges)


def all_labelled_graphs(n: int) -> Iterator[FriendshipGraph]:
    """Every labelled graph on [n]: all 2^C(n,2) edge subsets."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield make_graph(n, chosen)
