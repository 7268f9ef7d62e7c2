"""Cross-verification suites.

Every suite pits an exhaustive brute-force oracle (simulate all of [n]^n,
or scan all of S_n) against the structural characterisations and closed
forms, and reports one pass/fail line per check.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import factorial
from typing import Iterable

from . import cyclic as cyc
from .classical import _all_friends, is_parking_function
from .core import (
    FriendshipGraph,
    ParkingPreference,
    Permutation,
    _require_size,
    _Value,
    all_labelled_graphs,
    graph_generator,
    make_graph,
)
from .cycle import (
    CyclicOutcome,
    Direction,
    cycle_fibre_size,
    cycle_total_count,
    cyclic_outcomes,
    decreasing_word,
    expand_cyclic,
)
from .friendship import _sweep, brute_fibre_counts
from .limits import _shown, ensure_sweep_within_cap
from .structure import (
    blocking_sequence,
    enumerate_fibre,
    fibre_size,
    hamiltonian_paths,
    total_fpf_count,
)

class CheckResult(_Value):
    """One check's outcome: its name, whether it passed, and its detail."""

    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        super().__init__(name, passed, detail)

    def __repr__(self) -> str:
        return f"CheckResult({self.name!r}, {self.passed!r}, {self.detail!r})"


def _check(name: str, bad: list[str], ok_detail: str) -> CheckResult:
    """Pass when `bad` is empty; otherwise report its first discrepancy."""
    return CheckResult(name, not bad, bad[0] if bad else ok_detail)


def _corpus_size(n: int) -> int:
    """How many graphs `_graph_corpus(n)` holds, known without building them:
    every labelled graph, or three named families and 16 samples."""
    return 2 ** (n * (n - 1) // 2) if n <= 4 else 3 + 16


def _graph_corpus(n: int) -> tuple[list[FriendshipGraph], str]:
    """All labelled graphs for n <= 4; a seeded sample plus the named
    families for larger n."""
    if n <= 4:
        graphs = list(all_labelled_graphs(n))
        return graphs, f"all {len(graphs)} labelled graphs"
    rng = random.Random(2024 + n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    graphs = [
        graph_generator("complete", n),
        graph_generator("path", n),
        graph_generator("cycle", n),
    ]
    for _ in range(16):
        graphs.append(make_graph(n, [e for e in pairs if rng.random() < 0.5]))
    return graphs, f"{len(graphs)} sampled graphs"


def props_suite(n_values: Iterable[int], *, force: bool = False) -> list[CheckResult]:
    """Containment, Hamiltonian-path equivalence, outcome transfer and the
    fibre-box partition, against brute force on a graph corpus, and the
    complete graph K_n against classical parking."""
    results = []
    for n in n_values:
        ensure_sweep_within_cap(n, force, sweeps=_corpus_size(n))
        graphs, corpus_note = _graph_corpus(n)
        classical_words = dict(_sweep(n, _all_friends(n), force=True))
        cn = graph_generator("cycle", n) if n >= 4 else None
        kn = graph_generator("complete", n)
        subset_bad: list[str] = []
        nonempty_bad: list[str] = []
        transfer_bad: list[str] = []
        partition_bad: list[str] = []
        for graph in graphs:
            # Preference entries -> friendship outcome word, by full simulation.
            words = dict(_sweep(n, graph._neighbors, force=True))

            for entries in words:
                if not is_parking_function(ParkingPreference(entries)):
                    subset_bad.append(f"{entries} on {sorted(graph.edges)}")

            paths = list(hamiltonian_paths(graph))
            if bool(words) != bool(paths) or len(words) != total_fpf_count(graph):
                nonempty_bad.append(f"{sorted(graph.edges)}")

            path_words = {pi.word for pi in paths}
            if graph == cn:  # every corpus holds C_n, so its witness reuses these
                cn_words, cn_paths = words, path_words
            if graph == kn:  # so does K_n
                kn_words = words
            for entries, word in classical_words.items():
                if word in path_words and words.get(entries) != word:
                    transfer_bad.append(f"{entries} on {sorted(graph.edges)}")

            # Each box lies in its outcome's fibre, no two boxes meet, and
            # together they cover every passing preference.
            seen: set[tuple[int, ...]] = set()
            for pi in paths:
                box = {p.entries for p in enumerate_fibre(pi, graph, force=True)}
                if any(words.get(entries) != pi.word for entries in box):
                    partition_bad.append(f"fibre of {pi.word} on {sorted(graph.edges)}")
                if box & seen:
                    partition_bad.append(f"overlap at {pi.word} on {sorted(graph.edges)}")
                seen |= box
            if seen != words.keys():
                partition_bad.append(f"union mismatch on {sorted(graph.edges)}")

        for check, bad in (
            (f"friendship-implies-classical n={n}", subset_bad),
            (f"nonempty-iff-hamiltonian n={n}", nonempty_bad),
            (f"classical-hamiltonian-outcome-transfers n={n}", transfer_bad),
            (f"fibre-box-partition n={n}", partition_bad),
        ):
            first = [f"{len(bad)} discrepancies, first: {bad[0]}"] if bad else []
            results.append(_check(check, first, f"{corpus_note}, {n ** n} preferences each"))

        # On K_n every car is a friend of every other, so friendship parking
        # is classical parking: (n+1)^(n-1) preferences (Konheim & Weiss 1966).
        total = (n + 1) ** (n - 1)
        same = kn_words == classical_words
        results.append(
            CheckResult(
                f"complete-graph-is-classical n={n}",
                same and len(kn_words) == total,
                f"{len(kn_words)} preferences on K_{n}, (n+1)^(n-1) = {total}, "
                + ("outcomes as classical" if same else "outcomes differ from classical"),
            )
        )

        if cn is not None:
            witness = next(
                (e for e in cn_words if classical_words.get(e) not in cn_paths), None
            )
            results.append(
                CheckResult(
                    f"friendship-beyond-hamiltonian-outcomes C_{n}",
                    witness is not None,
                    f"witness {witness}" if witness else "no witness found",
                )
            )
    return results


def _expected_blocking_words(c: CyclicOutcome) -> dict[int, tuple[int, ...]]:
    """The piecewise closed-form blocking runs for a rotation outcome, n >= 4."""
    n, i = c.n, c.start
    expected: dict[int, tuple[int, ...]] = {}
    if c.direction is Direction.DECREASING:
        if i <= n - 2:
            for j in range(1, n - 1):
                expected[j] = (j,)
            expected[n - 1] = tuple(range(i, 0, -1)) + (n, n - 1)
            expected[n] = tuple(range(i, 0, -1)) + (n,)
        elif i == n - 1:
            for j in range(1, n):
                expected[j] = (j,)
            expected[n] = decreasing_word(n - 1, n)
        else:
            for j in range(1, n + 1):
                expected[j] = (j,)
    else:
        for j in range(i, n + 1):
            expected[j] = tuple(range(i, j + 1))
        if i >= 4:
            expected[1] = (1,)
            expected[2] = (1, 2)
            for j in range(3, i):
                expected[j] = (n,) + tuple(range(1, j + 1))
        else:
            for j in range(1, i):
                expected[j] = tuple(range(1, j + 1))
    return expected


def cycle_suite(n_values: Iterable[int], *, force: bool = False) -> list[CheckResult]:
    """Cycle-graph closed forms against the general fibre product and brute force."""
    results = []
    for n in n_values:
        if n < 3:
            continue
        ensure_sweep_within_cap(n, force)
        cn = graph_generator("cycle", n)

        paths = list(hamiltonian_paths(cn))
        rotations = [(c, expand_cyclic(c)) for c in cyclic_outcomes(n)]
        expansions = {pi.word for _, pi in rotations}
        path_words = {p.word for p in paths}
        ok = len(paths) == 2 * n and path_words == expansions
        results.append(
            CheckResult(
                f"cycle-hamiltonian-paths n={n}",
                ok,
                f"{len(paths)} paths == 2n rotations"
                if ok
                else f"{len(paths)} paths vs {len(expansions)} rotations, "
                f"{len(path_words & expansions)} shared",
            )
        )

        brute = brute_fibre_counts(cn, force=True)

        formula = cycle_total_count(n)
        brute_total = sum(brute.values())
        results.append(
            CheckResult(
                f"cycle-count-closed-form n={n}",
                formula == brute_total,
                f"formula {formula} vs brute {brute_total}",
            )
        )

        bad = []
        for c, pi in rotations:
            closed = cycle_fibre_size(c)
            general = fibre_size(pi, cn)
            counted = brute[pi.word]
            if not closed == general == counted:
                bad.append(f"{pi.word}: closed {closed}, product {general}, brute {counted}")
        results.append(
            _check(f"cycle-fibre-closed-forms n={n}", bad, f"all {2 * n} rotation fibres agree")
        )

        if n >= 4:
            bad = []
            for c, pi in rotations:
                for j, want in _expected_blocking_words(c).items():
                    got = blocking_sequence(j, pi, cn).elements
                    if got != want:
                        bad.append(f"run for {j} in {pi.word}: {got} != {want}")
            results.append(
                _check(
                    f"cycle-blocking-run-shapes n={n}",
                    bad,
                    f"all runs match on {2 * n} rotations",
                )
            )
        else:
            pi = Permutation(decreasing_word(1, 3))
            run = blocking_sequence(2, pi, cn).elements
            size = fibre_size(pi, cn)
            ok = run == (2,) and size == 2
            results.append(
                CheckResult(
                    "three-cycle-replacement",
                    ok,
                    f"run for 2 in 132 is {run}, fibre size {size}",
                )
            )
    return results


def bijection_suite(n_values: Iterable[int], *, force: bool = False) -> list[CheckResult]:
    """Inversion-sequence and component bijections against brute enumeration."""
    results = []
    for n in n_values:
        ensure_sweep_within_cap(n, force)  # n ** n >= n!, so this covers S_n too

        perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
        comps = {pi.word: cyc.components(pi) for pi in perms}

        bad = []
        for pi in perms:
            if cyc.perm_from_inv_seq(cyc.inv_seq(pi)) != pi:
                bad.append(f"{pi.word}")
        comp_counts: dict[tuple[int, ...], int] = {}
        for entries in itertools.product(*(range(i) for i in range(1, n + 1))):
            perm = cyc.perm_from_inv_seq(entries)
            if cyc.inv_seq(perm).entries != entries:
                bad.append(f"{entries}")
            comp_counts[entries] = len(comps[perm.word])
        results.append(
            _check(
                f"inversion-sequence-bijection n={n}",
                bad,
                f"{len(perms)} permutations both ways",
            )
        )

        bad = []
        for pi in perms:
            greedy = [(c.start, c.end) for c in comps[pi.word]]
            if greedy != _brute_minimal_blocks(pi.word):
                bad.append(f"{pi.word}")
        results.append(
            _check(
                f"component-decomposition n={n}",
                bad,
                f"greedy cuts match minimal blocks on {len(perms)} permutations",
            )
        )

        cyclic_pfs = list(cyc.enumerate_cyclic_pf(n, force=True))
        all_components = [c for cs in comps.values() for c in cs]
        comp_total = len(all_components)
        formula = cyc.cyclic_total_count(n)
        results.append(
            CheckResult(
                f"cyclic-count n={n}",
                len(cyclic_pfs) == formula == comp_total,
                f"brute {len(cyclic_pfs)}, formula {formula}, components {comp_total}",
            )
        )

        per_start: Counter[int] = Counter()
        bad = []
        images = []
        by_displacement: Counter[tuple[int, ...]] = Counter()
        for p in cyclic_pfs:
            res, c, _ = cyc._psi(p)
            start = res.outcome.word[0]
            per_start[start] += 1
            by_displacement[res.displacement] += 1
            images.append(c)
            if cyc.psi_inverse(c) != p:
                bad.append(f"round trip at {p.entries}")
            if min(c.word) != start:
                bad.append(f"component minimum at {p.entries}")
            host = c.underlying
            if any(
                res.displacement[j - 1] != cyc.inversion_number(j, host)
                for j in range(1, n + 1)
            ):
                bad.append(f"displacement/inversion at {p.entries}")

        if sorted(
            (c.underlying.word, c.start) for c in images
        ) != sorted((c.underlying.word, c.start) for c in all_components):
            bad.append("image is not all components exactly once")
        results.append(
            _check(
                f"component-bijection-round-trip n={n}",
                bad,
                f"{len(cyclic_pfs)} preferences <-> {len(all_components)} components",
            )
        )

        bad = [
            f"start {start}"
            for start in range(1, n + 1)
            if per_start[start] != cyc.cyclic_fibre_size(start, n)
        ]
        results.append(
            _check(
                f"cyclic-fibre-sizes n={n}",
                bad,
                f"all {n} rotation fibres match the factorial product",
            )
        )

        bad = []
        for entries, want in comp_counts.items():
            got = by_displacement[entries]
            if want != got:
                bad.append(f"displacement {entries}: {got} preferences vs {want} components")
        results.append(
            _check(f"displacement-fibres n={n}", bad, f"{factorial(n)} displacement vectors")
        )
    return results


def _brute_minimal_blocks(word: tuple[int, ...]) -> list[tuple[int, int]]:
    """Quadratic reference decomposition: repeatedly take the shortest prefix
    of the remainder that occupies its own position interval."""
    n = len(word)
    blocks = []
    start = 1
    while start <= n:
        end = start
        while sorted(word[start - 1 : end]) != list(range(start, end + 1)):
            end += 1
        blocks.append((start, end))
        start = end + 1
    return blocks


# The ten cyclic preferences of length 3 with their displacement vectors,
# host permutations and marked components (start position of the block).
N3_REFERENCE_TABLE = (
    ((1, 2, 3), (1, 1, 1), (0, 1, 2), (3, 2, 1), 1),
    ((1, 2, 3), (1, 1, 2), (0, 1, 1), (2, 3, 1), 1),
    ((1, 2, 3), (1, 1, 3), (0, 1, 0), (2, 1, 3), 1),
    ((1, 2, 3), (1, 2, 1), (0, 0, 2), (3, 1, 2), 1),
    ((1, 2, 3), (1, 2, 2), (0, 0, 1), (1, 3, 2), 1),
    ((1, 2, 3), (1, 2, 3), (0, 0, 0), (1, 2, 3), 1),
    ((2, 3, 1), (3, 1, 1), (0, 0, 1), (1, 3, 2), 2),
    ((2, 3, 1), (3, 1, 2), (0, 0, 0), (1, 2, 3), 2),
    ((3, 1, 2), (2, 2, 1), (0, 1, 0), (2, 1, 3), 3),
    ((3, 1, 2), (2, 3, 1), (0, 0, 0), (1, 2, 3), 3),
)


def n3_reference_rows() -> list[tuple]:
    """Regenerate the length-3 table: every cyclic preference with outcome,
    displacement, host permutation and marked component, grouped by rotation
    start and then lexicographic."""
    rows = []
    for p in cyc.enumerate_cyclic_pf(3, force=True):
        res, c, _ = cyc._psi(p)
        rows.append((res.outcome.word, p.entries, res.displacement, c.underlying.word, c.start))
    # Stable, so each rotation keeps the sweep's lexicographic order.
    rows.sort(key=lambda row: row[0][0])
    return rows


def table1_suite() -> list[CheckResult]:
    rows = n3_reference_rows()
    table = N3_REFERENCE_TABLE
    bad = [f"first mismatch: {got} != {want}" for got, want in zip(rows, table) if got != want]
    if len(rows) != len(table):
        bad.append(f"row count {len(rows)} != {len(table)}")
    return [_check("three-car-reference-table", bad, f"{len(rows)} rows regenerated")]


# Every suite but "all", in the order "all" runs them: runner, default sizes.
_SUITES = {
    "table1": (lambda n_values, force: table1_suite(), None),
    "props": (props_suite, range(1, 5)),
    "cycle": (cycle_suite, range(3, 7)),
    "bijection": (bijection_suite, range(1, 6)),
}
# The suite names, in the order the CLI offers them.
SUITE_NAMES = ("props", "table1", "cycle", "bijection", "all")


def run_suite(
    suite: str, n_values: Iterable[int] | None = None, *, force: bool = False
) -> list[CheckResult]:
    """Run one named suite (or all of them) and collect check results.

    Every given n is held to the size rule, with least 1, before any suite
    runs: a range by its two ends, without iterating it, and any other
    iterable read once.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {_shown(suite)}; choose from {SUITE_NAMES}")
    sizes = n_values if n_values is None or isinstance(n_values, range) else tuple(n_values)
    if sizes:  # bool(), not len(): a range past sys.maxsize has no len()
        for n in (sizes[0], sizes[-1]) if isinstance(sizes, range) else sizes:
            _require_size("n", n, 1, "need n >= 1")

    results: list[CheckResult] = []
    for name, (run, default) in _SUITES.items():
        if suite in (name, "all"):
            results.extend(run(default if sizes is None else sizes, force=force))
    return results
