import itertools
import random
import sys
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkfun import cycle, structure
from parkfun import (
    NotHamiltonianPath,
    Permutation,
    SearchCapExceeded,
    Success,
    blocking_sequence,
    count_fpf_brute,
    cycle_total_count,
    cyclic_total_count,
    enumerate_fibre,
    fibre_characterisation,
    fibre_size,
    fig4_graph,
    friendship_park,
    graph_generator,
    hamiltonian_paths,
    has_hamiltonian_path,
    identity_permutation,
    inverse_position,
    is_blocker,
    is_hamiltonian_path,
    make_graph,
    make_preference,
    total_fpf_count,
)
from tests.conftest import brute_fibres_by_outcome, small_graphs

FIG4 = fig4_graph()
PI_FIG4 = Permutation((8, 7, 1, 5, 2, 4, 6, 3))
STAR = make_graph(4, [(1, 2), (1, 3), (1, 4)])


def test_fig4_edge_list():
    spanning = {(8, 7), (7, 1), (1, 5), (5, 2), (2, 4), (4, 6), (6, 3)}
    chords = {(8, 4), (4, 3), (3, 2), (2, 8)}
    assert FIG4 == make_graph(8, spanning | chords)


class TestHamiltonianPaths:
    def test_c4_paths(self, c4):
        words = [p.word for p in hamiltonian_paths(c4)]
        # brute force over all 24 permutations of [4]
        expected = [
            w
            for w in itertools.permutations(range(1, 5))
            if all(c4.adjacent(w[k], w[k + 1]) for k in range(3))
        ]
        assert words == sorted(expected)
        assert len(words) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_graph_all_permutations(self, n):
        kn = graph_generator("complete", n)
        words = [p.word for p in hamiltonian_paths(kn)]
        assert words == sorted(itertools.permutations(range(1, n + 1)))
        assert len(words) == factorial(n)

    def test_fig4_contains_worked_path(self):
        assert PI_FIG4 in list(hamiltonian_paths(FIG4))

    def test_lexicographic_order(self):
        words = [p.word for p in hamiltonian_paths(FIG4)]
        assert words == sorted(words)

    def test_has_hamiltonian_path(self):
        assert has_hamiltonian_path(graph_generator("cycle", 5))
        assert not has_hamiltonian_path(STAR)
        assert has_hamiltonian_path(make_graph(1, []))

    @pytest.mark.parametrize("n", [5, 6])
    def test_nonempty_iff_hamiltonian_random_graphs(self, n):
        import random

        rng = random.Random(n * 17)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(4):
            graph = make_graph(n, [e for e in pairs if rng.random() < 0.4])
            brute_nonempty = any(
                isinstance(friendship_park(make_preference(entries), graph), Success)
                for entries in itertools.product(range(1, n + 1), repeat=n)
            )
            assert brute_nonempty == has_hamiltonian_path(graph)
            assert brute_nonempty == (total_fpf_count(graph) > 0)


class TestIsBlocker:
    def test_larger_values_next_to_hostile_small_one(self):
        assert is_blocker(7, 4, PI_FIG4, FIG4)
        assert is_blocker(5, 4, PI_FIG4, FIG4)

    def test_non_blockers(self):
        assert not is_blocker(8, 4, PI_FIG4, FIG4)
        assert not is_blocker(6, 4, PI_FIG4, FIG4)

    def test_value_blocks_itself(self):
        for i in range(1, 9):
            assert is_blocker(i, i, PI_FIG4, FIG4)

    def test_smaller_values_always_block(self):
        assert is_blocker(2, 4, PI_FIG4, FIG4)
        assert is_blocker(1, 8, PI_FIG4, FIG4)

    def test_rejects_bad_values_and_sizes(self, c4):
        for j, i in ((0, 4), (9, 4), (4, 0), (4, 9)):
            with pytest.raises(ValueError, match="outside"):
                is_blocker(j, i, PI_FIG4, FIG4)
        with pytest.raises(ValueError, match="8 entries but the graph has 4 vertices"):
            is_blocker(8, 4, PI_FIG4, c4)


class TestBlockingSequence:
    def test_worked_example(self):
        run = blocking_sequence(4, PI_FIG4, FIG4)
        assert run.elements == (7, 1, 5, 2, 4)
        assert run.length == 5

    def test_value_one_blocks_only_itself(self, c4, c5):
        for graph in (c4, c5, FIG4):
            for pi in hamiltonian_paths(graph):
                assert blocking_sequence(1, pi, graph).elements == (1,)

    def test_second_worked_example(self):
        run = blocking_sequence(6, PI_FIG4, FIG4)
        assert run.elements == (7, 1, 5, 2, 4, 6)

    def test_rejects_bad_values_and_sizes(self, c4):
        for i in (0, 9):
            with pytest.raises(ValueError, match="outside"):
                blocking_sequence(i, PI_FIG4, FIG4)
        # Car 1's run stops at once, so only the size check can catch this.
        with pytest.raises(ValueError, match="8 entries but the graph has 4 vertices"):
            blocking_sequence(1, PI_FIG4, c4)
        with pytest.raises(ValueError, match="4 entries but the graph has 8 vertices"):
            blocking_sequence(4, Permutation((4, 3, 2, 1)), FIG4)


class TestFibreCharacterisation:
    def test_worked_example_sets(self):
        chi = fibre_characterisation(PI_FIG4, FIG4)
        assert chi.spot_sets == (
            (3, 3),
            (2, 5),
            (8, 8),
            (2, 6),
            (3, 4),
            (2, 7),
            (2, 2),
            (1, 1),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_graph_identity(self, n):
        kn = graph_generator("complete", n)
        chi = fibre_characterisation(identity_permutation(n), kn)
        assert chi.spot_sets == tuple((1, i) for i in range(1, n + 1))

    @pytest.mark.parametrize("n", [4, 5])
    def test_complete_graph_identity_matches_brute_force(self, n):
        kn = graph_generator("complete", n)
        fibres = brute_fibres_by_outcome(kn)
        box = {p.entries for p in enumerate_fibre(identity_permutation(n), kn)}
        assert box == fibres[tuple(range(1, n + 1))]

    def test_first_set_is_position_of_one(self, c4):
        for pi in hamiltonian_paths(c4):
            chi = fibre_characterisation(pi, c4)
            pos = inverse_position(pi, 1)
            assert chi.spot_sets[0] == (pos, pos)

    def test_contiguous_and_anchored(self, c5):
        for pi in hamiltonian_paths(c5):
            chi = fibre_characterisation(pi, c5)
            for i in range(1, 6):
                lo, hi = chi.spot_sets[i - 1]
                assert 1 <= lo <= hi == inverse_position(pi, i)

    def test_rejects_non_hamiltonian(self, c4):
        with pytest.raises(NotHamiltonianPath):
            fibre_characterisation(Permutation((1, 3, 2, 4)), c4)

    def test_scans_without_the_public_helpers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scan must not go through the public helpers")

        monkeypatch.setattr(structure, "blocking_sequence", refuse)
        monkeypatch.setattr(structure, "inverse_position", refuse)
        chi = fibre_characterisation(PI_FIG4, FIG4)
        assert chi.spot_sets == ((3, 3), (2, 5), (8, 8), (2, 6), (3, 4), (2, 7), (2, 2), (1, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_box_corners_on_large_random_graphs(self, seed):
        """At n=40, each car moved down to lo (all others at hi) still gives
        the outcome, and moved one spot further it does not."""
        rng = random.Random(seed)
        n = 40
        word = rng.sample(range(1, n + 1), n)
        planted = list(zip(word, word[1:]))
        chords = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.3]
        graph = make_graph(n, planted + chords)
        pi = Permutation(tuple(word))
        chi = fibre_characterisation(pi, graph)
        assert any(lo < hi for lo, hi in chi.spot_sets)
        his = [hi for _, hi in chi.spot_sets]
        for car, (lo, _) in enumerate(chi.spot_sets, start=1):
            corner = his[: car - 1] + [lo] + his[car:]
            res = friendship_park(make_preference(corner), graph)
            assert isinstance(res, Success) and res.outcome == pi
            if lo > 1:
                corner[car - 1] = lo - 1
                res = friendship_park(make_preference(corner), graph)
                assert not (isinstance(res, Success) and res.outcome == pi)


class TestFibreSize:
    def test_worked_example(self):
        assert fibre_size(PI_FIG4, FIG4) == 240

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_graph_identity(self, n):
        kn = graph_generator("complete", n)
        assert fibre_size(identity_permutation(n), kn) == factorial(n)

    def test_three_cycle_adjustment(self):
        c3 = graph_generator("cycle", 3)
        assert fibre_size(Permutation((1, 3, 2)), c3) == 2


class TestEnumerateFibre:
    def test_contains_increasing_cycle_preference(self, c4):
        box = [p.entries for p in enumerate_fibre(Permutation((4, 1, 2, 3)), c4)]
        assert (2, 3, 1, 1) in box

    def test_forced_when_all_runs_are_singletons(self, c4):
        pi = Permutation((4, 3, 2, 1))
        box = list(enumerate_fibre(pi, c4))
        assert len(box) == 1
        assert box[0].entries == tuple(inverse_position(pi, i) for i in range(1, 5))

    def test_matches_brute_force_exactly(self, c4):
        fibres = brute_fibres_by_outcome(c4)
        pi = Permutation((2, 1, 4, 3))
        box = {p.entries for p in enumerate_fibre(pi, c4)}
        assert box == fibres[pi.word]
        for entries in box:
            res = friendship_park(make_preference(entries), c4)
            assert isinstance(res, Success) and res.outcome == pi

    def test_size_matches_length(self, c5):
        for pi in hamiltonian_paths(c5):
            assert fibre_size(pi, c5) == sum(1 for _ in enumerate_fibre(pi, c5))

    def test_lexicographic(self, c4):
        box = [p.entries for p in enumerate_fibre(Permutation((2, 1, 4, 3)), c4)]
        assert box == sorted(box)

    def test_cap_on_exact_fibre_size(self, c4, monkeypatch):
        pi = Permutation((4, 1, 2, 3))  # a fibre of 8 preferences
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "7")
        with pytest.raises(SearchCapExceeded):
            next(enumerate_fibre(pi, c4))
        assert len(list(enumerate_fibre(pi, c4, force=True))) == 8
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "8")
        assert len(list(enumerate_fibre(pi, c4))) == 8

    def test_cap_refusal_names_a_long_size_by_a_power_of_ten(self, monkeypatch):
        # The identity's fibre on P_1300, as on K_1300, holds 1300! (3,486
        # digits) preferences; the path graph is the cheaper one to build.
        monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
        with pytest.raises(SearchCapExceeded) as info:
            next(enumerate_fibre(identity_permutation(1300), graph_generator("path", 1300)))
        assert str(info.value) == (
            "search space of more than 10^3485 preferences exceeds the cap of 16777216; "
            "force the run or raise PARKFUN_BRUTE_CAP"
        )


def _calls_per_total(monkeypatch, name, graph):
    """How many times `total_fpf_count(graph)` calls `structure.<name>`."""
    calls = 0
    real = getattr(structure, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(structure, name, counted)
    total_fpf_count(graph)
    return calls


class TestTotalCount:
    def test_star_has_none(self):
        assert total_fpf_count(STAR) == 0

    def test_single_vertex(self):
        assert total_fpf_count(make_graph(1, [])) == 1

    def test_fig4(self):
        assert total_fpf_count(FIG4) == 20228

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graph_is_classical(self, n):
        assert total_fpf_count(graph_generator("complete", n)) == (n + 1) ** (n - 1)

    def test_counts_without_rechecking_paths(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the count must not re-check or re-characterise a path")

        monkeypatch.setattr(structure, "is_hamiltonian_path", refuse)
        monkeypatch.setattr(structure, "fibre_characterisation", refuse)
        assert total_fpf_count(FIG4) == 20228

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_path_graph_count(self, n):
        path = graph_generator("path", n)
        assert total_fpf_count(path) == count_fpf_brute(path) == factorial(n) + 1

    @pytest.mark.parametrize(
        "kind, n, total",
        [("cycle", 150, cycle_total_count(150)), ("path", 300, factorial(300) + 1)],
    )
    def test_long_paths_and_cycles(self, kind, n, total):
        assert total_fpf_count(graph_generator(kind, n)) == total

    @pytest.mark.parametrize(
        "kind, n, tests",
        [("path", 200, 19_900), ("cycle", 200, 78_807), ("complete", 7, 11_327)],
    )
    def test_neighbour_tests_per_total(self, monkeypatch, kind, n, tests):
        """Work, not time: the number of neighbour tests a total makes is the
        same on any machine. A scan stepping left one value at a time made
        1,353,200, 2,765,108 and 31,003 of them."""
        assert _calls_per_total(monkeypatch, "_blocks", graph_generator(kind, n)) == tests

    @pytest.mark.parametrize(
        "kind, n, appends",
        [("path", 100, 10_000), ("cycle", 200, 79_800), ("complete", 7, 13_699)],
    )
    def test_dfs_appends_per_total(self, monkeypatch, kind, n, appends):
        """Work, not time: the DFS scans one blocking run per append, n² of
        them on a path graph, n(2n - 1) on a cycle and about e·n! on K_n."""
        assert _calls_per_total(monkeypatch, "_run_start", graph_generator(kind, n)) == appends

    @pytest.mark.parametrize(
        "total, n, entries, depth",
        [(cycle_total_count, 2000, 3_999, 12), (cyclic_total_count, 2000, 3_999, 12)],
    )
    def test_split_entries_per_closed_form_total(self, monkeypatch, total, n, entries, depth):
        """Work, not time: each closed-form total halves 1..n down to single
        starts, 2n - 1 entries nested at most ceil(log2 n) + 1 deep."""
        calls = level = deepest = 0
        real = cycle._split_rotation_sum

        def counted(*args):
            nonlocal calls, level, deepest
            calls, level = calls + 1, level + 1
            deepest = max(deepest, level)
            try:
                return real(*args)
            finally:
                level -= 1

        monkeypatch.setattr(cycle, "_split_rotation_sum", counted)
        total(n)
        assert (calls, deepest) == (entries, depth)
        assert deepest <= (n - 1).bit_length() + 1

    def test_long_paths_within_the_recursion_limit(self):
        # The DFS is as deep as the path is long; it must not take one
        # Python frame per level.
        n = 60
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        path = graph_generator("path", n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n // 2)
        try:
            words = [p.word for p in hamiltonian_paths(path)]
            found = has_hamiltonian_path(path)
            total = total_fpf_count(path)
        finally:
            sys.setrecursionlimit(limit)
        assert words == [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        assert found
        assert total == factorial(n) + 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_enumeration(self, n, cycle_brute):
        counts, _ = cycle_brute(n)
        assert total_fpf_count(graph_generator("cycle", n)) == sum(counts.values())

    def test_fibres_partition_total(self, c4):
        fibres = brute_fibres_by_outcome(c4)
        per_outcome = {
            pi.word: prod(hi - lo + 1 for lo, hi in fibre_characterisation(pi, c4).spot_sets)
            for pi in hamiltonian_paths(c4)
        }
        assert per_outcome == {w: len(s) for w, s in fibres.items()}


def _plain_run_start(k, perm, graph):
    """Where the blocking run ending at word index k starts, stepping left one
    value at a time with the literal `is_blocker`."""
    word = perm.word
    i = word[k]
    while k > 0 and is_blocker(word[k - 1], i, perm, graph):
        k -= 1
    return k


@st.composite
def words_and_graphs(draw, max_n):
    """A permutation of a random graph's vertices; for about half the draws
    the permutation is planted in the graph as a Hamiltonian path."""
    graph = draw(small_graphs(max_n=max_n))
    n = graph.n
    word = tuple(draw(st.permutations(range(1, n + 1))))
    if draw(st.booleans()):
        graph = make_graph(n, [*graph.edges, *zip(word, word[1:])])
    return Permutation(word), graph


@settings(max_examples=200, deadline=None)
@given(words_and_graphs(max_n=9))
def test_run_starts_match_a_plain_left_scan(case):
    perm, graph = case
    word = perm.word
    starts = [_plain_run_start(k, perm, graph) for k in range(perm.n)]
    for k, i in enumerate(word):
        assert blocking_sequence(i, perm, graph).elements == word[starts[k] : k + 1]
    if is_hamiltonian_path(perm, graph):
        spot_sets = fibre_characterisation(perm, graph).spot_sets
        assert [spot_sets[i - 1] for i in word] == [(start + 1, k + 1) for k, start in enumerate(starts)]


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=7))
def test_leaves_match_filtered_permutations(graph):
    """`_leaves` yields every Hamiltonian path in lexicographic order, each
    with the product of its plain-scan run lengths."""
    expected = []
    for word in itertools.permutations(range(1, graph.n + 1)):
        perm = Permutation(word)
        if is_hamiltonian_path(perm, graph):
            runs = [k - _plain_run_start(k, perm, graph) + 1 for k in range(graph.n)]
            expected.append((word, prod(runs)))
    assert list(structure._leaves(graph)) == expected
