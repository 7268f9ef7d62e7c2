"""Reference results the benchmark checks parkfun against.

Everything here is written from the parking rules and the paper's sums
alone and imports nothing from parkfun, so a defect in the code under test
cannot hide in its own reference. Graphs are adjacency lists indexed by
vertex (index 0 unused); words and preferences are tuples of ints.
"""

from __future__ import annotations

import gc
import time
from math import prod


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _available(occ: list[int], friends: set[int], spot: int) -> bool:
    # occ is padded with the always-empty boundary spots 0 and n+1.
    if occ[spot]:
        return False
    left, right = occ[spot - 1], occ[spot + 1]
    return (not left or left in friends) and (not right or right in friends)


def friendship_outcome(entries, adj) -> tuple[int, ...] | None:
    """Outcome word of the friendship process, or None when a car fails."""
    n = len(entries)
    occ = [0] * (n + 2)
    for car, k in enumerate(entries, start=1):
        while k <= n and not _available(occ, adj[car], k):
            k += 1
        if k > n:
            return None
        occ[k] = car
    return tuple(occ[1:-1])


def classical_outcome(entries) -> tuple[int, ...] | None:
    """Outcome word of the classical process, or None when a car fails."""
    n = len(entries)
    occ = [0] * (n + 1)
    for car, k in enumerate(entries, start=1):
        while k <= n and occ[k]:
            k += 1
        if k > n:
            return None
        occ[k] = car
    return tuple(occ[1:])


def count_fpf(n: int, adj) -> int:
    """Number of friendship parking functions.

    Depth-first over each car's landing spot: the preferences between the
    previous spot that would stop the car and the spot where it lands all
    land there, so each branch is weighted by that gap instead of being
    visited once per preference.
    """
    occ = [0] * (n + 2)

    def descend(car: int) -> int:
        if car > n:
            return 1
        friends = adj[car]
        total = 0
        prev = 0
        for spot in range(1, n + 1):
            if _available(occ, friends, spot):
                occ[spot] = car
                total += (spot - prev) * descend(car + 1)
                occ[spot] = 0
                prev = spot
        return total

    return descend(1)


def hamiltonian_paths(n: int, adj) -> list[tuple[int, ...]]:
    """Every Hamiltonian path as a vertex word, in lexicographic order."""
    out = []
    path: list[int] = []
    used = [False] * (n + 1)

    def extend(v: int) -> None:
        path.append(v)
        used[v] = True
        if len(path) == n:
            out.append(tuple(path))
        else:
            for w in sorted(adj[v]):
                if not used[w]:
                    extend(w)
        path.pop()
        used[v] = False

    for start in range(1, n + 1):
        extend(start)
    return out


def fibre_intervals(word, adj) -> list[tuple[int, int]] | None:
    """Per car, the inclusive interval of preferences that land it where
    `word` puts it, or None when no preference reaches `word`.

    The cars before car i are already where `word` puts them, so car i's
    landing spot depends only on its own preference: it lands at its target
    from every preference above the last spot below the target that would
    have stopped it.
    """
    n = len(word)
    target = [0] * (n + 1)
    for spot, car in enumerate(word, start=1):
        target[car] = spot
    occ = [0] * (n + 2)
    out = []
    for car in range(1, n + 1):
        t, friends = target[car], adj[car]
        if not _available(occ, friends, t):
            return None
        lo = t
        while lo > 1 and not _available(occ, friends, lo - 1):
            lo -= 1
        out.append((lo, t))
        occ[t] = car
    return out


def fibre_size(word, adj) -> int:
    intervals = fibre_intervals(word, adj)
    return 0 if intervals is None else prod(hi - lo + 1 for lo, hi in intervals)


def _factorial(k: int) -> int:
    return prod(range(2, k + 1))


def factorial_pair_sum(m: int, lo: int, hi: int) -> int:
    """Sum of i! * (m-i)! over lo <= i <= hi, by running products.

    U_j = U_{j-1} * (m-j+1) + j! equals the partial sum divided by (m-j)!,
    so every step is one big-by-small multiply.
    """
    u = 0
    fact = _factorial(lo)
    for j in range(lo, hi + 1):
        if j > lo:
            fact *= j
        u = u * (m - j + 1) + fact
    return u * _factorial(m - hi)


def cyclic_total(n: int) -> int:
    """Number of cyclic parking functions of length n: sum of i!(n-i)!."""
    return factorial_pair_sum(n, 0, n - 1)


def cycle_total(n: int) -> int:
    """Number of friendship parking functions on the n-cycle, n >= 4."""
    if n < 4:
        raise ValueError("cycle_total needs n >= 4")
    decreasing = (n + 1) + sum((i + 1) * (i + 2) for i in range(1, n - 1))
    thirds, rest = divmod(factorial_pair_sum(n + 1, 4, n), 3)
    if rest:
        raise ArithmeticError("the i >= 4 terms must sum to a multiple of 3")
    return decreasing + factorial_pair_sum(n, 0, 2) + thirds


def inversion_counts(word) -> tuple[int, ...]:
    """Per value, how many smaller values stand to its right (Fenwick tree)."""
    n = len(word)
    tree = [0] * (n + 1)
    counts = [0] * n
    for v in reversed(word):
        i, seen = v - 1, 0
        while i > 0:
            seen += tree[i]
            i -= i & -i
        counts[v - 1] = seen
        i = v
        while i <= n:
            tree[i] += 1
            i += i & -i
    return tuple(counts)


def component_blocks(word) -> list[tuple[int, int]]:
    """Inclusive (start, end) positions of the permutation's components."""
    out, start, running = [], 1, 0
    for j, v in enumerate(word, start=1):
        running = max(running, v)
        if running == j:
            out.append((start, j))
            start = j + 1
    return out


def cyclic_preference(host, start: int) -> tuple[int, ...]:
    """The cyclic preference whose displacements are the host's inversion
    counts and whose cars park in the increasing rotation from `start`."""
    n = len(host)
    inv = inversion_counts(host)
    return tuple(
        (n + j + 1 - start if j < start else j + 1 - start) - inv[j - 1]
        for j in range(1, n + 1)
    )


def increasing_rotation(start: int, n: int) -> tuple[int, ...]:
    return tuple(range(start, n + 1)) + tuple(range(1, start))


_PROBE_ADJ = [set(), {2, 3}, {1, 3}, {1, 2, 4}, {3, 5}, {4, 6}, {5}]
_PROBE_PREFS = ((1, 1, 2, 3, 4, 5), (3, 1, 2, 2, 5, 1), (6, 5, 4, 3, 2, 1)) * 200


def speed_probe() -> float:
    """Seconds taken by a fixed batch of friendship simulations: the same kind
    of interpreter work as parkfun's kernels, as a gauge of machine speed.
    Garbage collection is held off so that collecting garbage left by the
    code timed before cannot land in the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for prefs in _PROBE_PREFS:
            friendship_outcome(prefs, _PROBE_ADJ)
        return time.perf_counter() - t0
    finally:
        gc.enable()
