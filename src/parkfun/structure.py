"""Structural analysis of friendship outcomes.

Successful friendship outcomes are exactly the Hamiltonian paths of the
graph. For a Hamiltonian path, the set of preferences mapping onto it is a
box: car i may prefer precisely the spots covered by the maximal run of
"blockers" ending at i. This module enumerates Hamiltonian paths, computes
blocking runs by previous-greater jumps, and turns them into fibre sets,
sizes and totals.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterator, Sequence

from .core import (
    FriendshipGraph,
    ParkingPreference,
    Permutation,
    _require_label,
    _require_order,
    _Value,
    inverse_position,
    make_graph,
)
from .limits import _clip_word, ensure_within_cap


class NotHamiltonianPath(ValueError):
    """The permutation is not a Hamiltonian path of the graph."""


class BlockingSequence(_Value):
    """Maximal contiguous run of blockers ending at the target value."""

    __slots__ = _fields = ("elements", "target")

    def __init__(self, elements: tuple[int, ...], target: int):
        super().__init__(tuple(elements), target)
        if not self.elements or self.elements[-1] != self.target:
            raise ValueError("blocking sequence must end at its target")

    @property
    def length(self) -> int:
        return len(self.elements)


class FibreCharacterisation(_Value):
    """Per-car admissible spot intervals for one Hamiltonian outcome.

    `spot_sets[i-1]` is the inclusive (lo, hi) interval of spots car i may
    prefer; hi is always the spot where car i ends up.
    """

    __slots__ = _fields = ("outcome", "spot_sets")

    def __init__(self, outcome: Permutation, spot_sets: tuple[tuple[int, int], ...]):
        super().__init__(outcome, tuple(tuple(s) for s in spot_sets))
        if len(self.spot_sets) != self.outcome.n:
            raise ValueError("need exactly one spot interval per car")


def is_hamiltonian_path(perm: Permutation, graph: FriendshipGraph) -> bool:
    """Do consecutive word entries always form edges of the graph?"""
    if perm.n != graph.n:
        return False
    # A Permutation holds only values in [1, n]: read the edges unchecked.
    word, neighbors = perm.word, graph._neighbors
    return all(word[k + 1] in neighbors[word[k]] for k in range(len(word) - 1))


def _leaves(graph: FriendshipGraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """(word, fibre size) for every Hamiltonian path, in lexicographic word order.

    Depth-first backtracking, extending partial paths by ascending vertex
    label, on an explicit stack: a path is as deep as the graph is large, so
    recursion would hit Python's limit. Car word[k]'s blocking run reads only
    word[0..k], so its length is known as soon as the DFS appends word[k]:
    the fibre size is carried down the DFS as a running product. The run's
    previous-greater jumps pg[0..k] are kept in step with the path: placing
    word[k] sets pg[k], and a backtrack leaves it to be overwritten.

    On two or more vertices, a vertex of degree at most 1 ends every
    Hamiltonian path: when there are two, every path starts at one of them,
    and when there are three or more, no path exists. Only then are the
    starts narrowed, so the words still come in lexicographic order.
    """
    n = graph.n
    neighbors = graph._neighbors
    ordered = [()] + [tuple(sorted(neighbors[v])) for v in range(1, n + 1)]
    used = [False] * (n + 1)
    path: list[int] = []
    pg = [-1] * n
    ends = [v for v in range(1, n + 1) if len(neighbors[v]) <= 1]
    roots = ends if len(ends) == 2 else () if len(ends) > 2 else range(1, n + 1)
    # stack[k]: the untried candidates for path[k], and the product over path[:k]
    stack = [(iter(roots), 1)]
    while stack:
        candidates, size = stack[-1]
        for v in candidates:
            if not used[v]:
                break
        else:
            stack.pop()
            if path:
                used[path.pop()] = False
            continue
        k = len(path)
        path.append(v)
        size *= k - _run_start(path, k, pg, neighbors) + 1
        if k + 1 == n:
            yield tuple(path), size
            path.pop()
        else:
            used[v] = True
            stack.append((iter(ordered[v]), size))


def hamiltonian_paths(graph: FriendshipGraph) -> Iterator[Permutation]:
    """Every Hamiltonian path of the graph, in lexicographic word order;
    for the single-vertex graph the trivial path is yielded. A path visits
    each vertex once, so its word is a permutation and skips the checks."""
    for word, _ in _leaves(graph):
        yield Permutation._unchecked(word)


def has_hamiltonian_path(graph: FriendshipGraph) -> bool:
    """Short-circuits on the first path found."""
    return next(hamiltonian_paths(graph), None) is not None


def _blocks(word: Sequence[int], k: int, i: int, friends: frozenset[int]) -> bool:
    """Does the value at word index k block car i, whose friend set is `friends`?

    This is the reference statement of the blocker rule, which `_run_start`
    inlines for speed.
    """
    if word[k] <= i:
        return True
    for kn in (k - 1, k + 1):
        if 0 <= kn < len(word) and word[kn] < i and word[kn] not in friends:
            return True
    return False


def _run_start(word: Sequence[int], k: int, pg: list[int], neighbors) -> int:
    """Index where the maximal blocking run ending at word index k starts.

    pg[j] is the nearest index left of j whose value exceeds word[j], or -1.
    Every value smaller than i = word[k] blocks car i, so the scan jumps over
    each one, and the smaller values before it, to the next larger value; only
    that one gets the neighbour test of `_blocks`, inlined. A tested value
    exceeds i, so `_blocks`' `word[j] <= i` test never holds, and it sits left
    of index k, so its right neighbour always exists: it blocks iff that
    neighbour, or for j > 0 its left one, is smaller than i and no friend of
    i. pg[:k] must be set; the first jump sets pg[k].
    """
    i = word[k]
    friends = neighbors[i]
    j = k - 1
    while j >= 0 and word[j] < i:
        j = pg[j]
    pg[k] = j
    while j >= 0 and (
        (word[j + 1] < i and word[j + 1] not in friends)
        or (j and word[j - 1] < i and word[j - 1] not in friends)
    ):
        j -= 1
        while j >= 0 and word[j] < i:
            j = pg[j]
    return j + 1


def _run_starts(word: Sequence[int], neighbors) -> Iterator[int]:
    """The start of the maximal blocking run ending at each index of `word`,
    in order: one scan left to right, so each index jumps over the runs found
    before it."""
    pg = [-1] * len(word)
    for k in range(len(word)):
        yield _run_start(word, k, pg, neighbors)


def is_blocker(j: int, i: int, perm: Permutation, graph: FriendshipGraph) -> bool:
    """Does the value j obstruct car i in this outcome?

    j blocks i when j <= i, or when j > i but sits next to some value
    smaller than i that is not a friend of i: car i can then never use
    j's spot, because a hostile earlier car guards it.
    """
    k = inverse_position(perm, j) - 1
    _require_label("value", i, perm.n)
    _require_order("permutation", perm.n, "entries", graph.n)
    return _blocks(perm.word, k, i, graph._neighbors[i])


def blocking_sequence(i: int, perm: Permutation, graph: FriendshipGraph) -> BlockingSequence:
    """Scan left from i's position while the blocker predicate holds. The
    runs ending before i's position are found on the way: they set the jumps
    that i's scan takes."""
    _require_order("permutation", perm.n, "entries", graph.n)
    prefix = perm.word[: inverse_position(perm, i)]
    *_, start = _run_starts(prefix, graph._neighbors)
    return BlockingSequence(prefix[start:], i)


def fibre_characterisation(perm: Permutation, graph: FriendshipGraph) -> FibreCharacterisation:
    """Admissible spot intervals for every car of a Hamiltonian outcome.

    Rejects permutations that are not Hamiltonian paths of the graph; the
    characterisation only holds for those. Car word[k]'s interval runs from
    the start of its blocking run to its own spot k+1.
    """
    if not is_hamiltonian_path(perm, graph):
        raise NotHamiltonianPath(
            f"{_clip_word(perm.word)} is not a Hamiltonian path of the graph"
        )
    word = perm.word
    sets: list[tuple[int, int]] = [(0, 0)] * perm.n
    for k, (i, start) in enumerate(zip(word, _run_starts(word, graph._neighbors))):
        sets[i - 1] = (start + 1, k + 1)
    return FibreCharacterisation(perm, tuple(sets))


def fibre_size(perm: Permutation, graph: FriendshipGraph) -> int:
    """Number of preferences whose friendship outcome is `perm`."""
    chi = fibre_characterisation(perm, graph)
    return prod(hi - lo + 1 for lo, hi in chi.spot_sets)


def enumerate_fibre(
    perm: Permutation, graph: FriendshipGraph, *, force: bool = False
) -> Iterator[ParkingPreference]:
    """All preferences with `perm` as friendship outcome, lexicographically.

    The fibre is a box, refused above the configured cap (checked on its
    exact size, before anything is yielded) unless `force` is set. Its
    intervals lie in [1, n], so the items skip the constructor's checks.
    """
    chi = fibre_characterisation(perm, graph)
    ranges = [range(lo, hi + 1) for lo, hi in chi.spot_sets]
    ensure_within_cap(prod(map(len, ranges)), force)
    for entries in itertools.product(*ranges):
        yield ParkingPreference._unchecked(entries)


def total_fpf_count(graph: FriendshipGraph) -> int:
    """Total number of friendship parking functions: fibre sizes summed over
    all Hamiltonian paths (zero when the graph has none)."""
    return sum(size for _, size in _leaves(graph))


# 8-vertex example graph used in the worked fibre computation: a spanning
# path 8-7-1-5-2-4-6-3 plus the chords 8-4, 4-3, 3-2, 2-8.
_FIG4_EDGES = (
    (8, 7), (7, 1), (1, 5), (5, 2), (2, 4), (4, 6), (6, 3),
    (8, 4), (4, 3), (3, 2), (2, 8),
)


def fig4_graph() -> FriendshipGraph:
    """Built-in 8-vertex example graph (CLI name "fig4")."""
    return make_graph(8, _FIG4_EDGES)
