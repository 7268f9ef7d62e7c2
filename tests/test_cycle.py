import tracemalloc

import pytest

from parkfun import (
    CyclicOutcome,
    Direction,
    Permutation,
    cycle_fibre_size,
    cycle_total_count,
    cyclic_outcomes,
    cyclic_total_count,
    decreasing_word,
    enumerate_fibre,
    expand_cyclic,
    fibre_size,
    graph_generator,
    hamiltonian_paths,
    increasing_word,
)
from parkfun.cycle import _exact_div3
from parkfun.verify import _expected_blocking_words
from parkfun.structure import blocking_sequence


class TestExpand:
    def test_worked_example(self):
        c = CyclicOutcome(Direction.INCREASING, start=8, n=10)
        assert expand_cyclic(c).word == (8, 9, 10, 1, 2, 3, 4, 5, 6, 7)

    def test_increasing_from_one_is_identity(self):
        for n in (3, 5, 9):
            c = CyclicOutcome(Direction.INCREASING, start=1, n=n)
            assert expand_cyclic(c).word == tuple(range(1, n + 1))

    def test_decreasing_from_n_is_reversal(self):
        for n in (3, 6):
            c = CyclicOutcome(Direction.DECREASING, start=n, n=n)
            assert expand_cyclic(c).word == tuple(range(n, 0, -1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            CyclicOutcome(Direction.INCREASING, start=5, n=4)
        with pytest.raises(ValueError):
            CyclicOutcome(Direction.INCREASING, start=1, n=2)
        with pytest.raises(ValueError):
            increasing_word(0, 4)

    def test_rotations_are_the_hamiltonian_paths(self):
        for n in (3, 4, 5, 6):
            cn = graph_generator("cycle", n)
            expanded = {expand_cyclic(c).word for c in cyclic_outcomes(n)}
            paths = [p.word for p in hamiltonian_paths(cn)]
            assert set(paths) == expanded
            assert len(paths) == 2 * n
            assert len(expanded) == 2 * n


class TestCycleFibreSize:
    def test_decreasing_general_case(self):
        c = CyclicOutcome(Direction.DECREASING, start=2, n=5)
        assert cycle_fibre_size(c) == 12
        c5 = graph_generator("cycle", 5)
        assert fibre_size(expand_cyclic(c), c5) == 12
        assert sum(1 for _ in enumerate_fibre(expand_cyclic(c), c5)) == 12

    def test_three_cycle_replacement(self):
        c = CyclicOutcome(Direction.DECREASING, start=1, n=3)
        assert expand_cyclic(c).word == (1, 3, 2)
        assert cycle_fibre_size(c) == 2

    def test_increasing_with_division(self):
        c = CyclicOutcome(Direction.INCREASING, start=4, n=4)
        assert cycle_fibre_size(c) == 8
        c4 = graph_generator("cycle", 4)
        assert sum(1 for _ in enumerate_fibre(Permutation((4, 1, 2, 3)), c4)) == 8

    def test_exact_div3_guard(self):
        big = 3 * 7 ** 500
        assert _exact_div3(big) == 7 ** 500
        assert _exact_div3(24) == 8
        assert _exact_div3(0) == 0
        for value in (1, 2, 25, big + 1, big - 1):
            with pytest.raises(ArithmeticError, match=f"^{value} is not divisible by 3$"):
                _exact_div3(value)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_closed_form_equals_product_equals_brute(self, n, cycle_brute):
        counts, _ = cycle_brute(n)
        cn = graph_generator("cycle", n)
        for c in cyclic_outcomes(n):
            word = expand_cyclic(c).word
            assert (
                cycle_fibre_size(c)
                == fibre_size(Permutation(word), cn)
                == counts[word]
            )


class TestCycleTotalCount:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_force(self, n, cycle_brute):
        counts, _ = cycle_brute(n)
        assert cycle_total_count(n) == sum(counts.values())

    def test_equals_sum_of_fibre_sizes(self):
        # cycle_fibre_size calls math.factorial; the total splits 1..n in halves,
        # so n = 2^k - 1, 2^k and 2^k + 1 meet every shape of split boundary.
        for n in [*range(3, 61), *(2**k + d for k in range(2, 10) for d in (-1, 0, 1)), 500, 2000]:
            assert cycle_total_count(n) == sum(
                cycle_fibre_size(c) for c in cyclic_outcomes(n)
            )

    @pytest.mark.parametrize("total", [cycle_total_count, cyclic_total_count])
    def test_keeps_few_big_ints_alive(self, total):
        # A table of every k! up to 5000 peaks near 17 MB; the binary split
        # holds one (P, Q, T) per level of halving, the largest about 8 KB each.
        tracemalloc.start()
        try:
            total(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_pinned_values(self):
        # n=10 agrees with the landing-spot count recorded in ROADMAP.md.
        assert [cycle_total_count(n) for n in range(8, 13)] == [
            67135, 587768, 5743059, 61943490, 731163463,
        ]

    def test_too_small(self):
        with pytest.raises(ValueError):
            cycle_total_count(2)

    @pytest.mark.parametrize("n", [5.0, 7.5])
    def test_non_integer_n_is_a_type_error(self, n):
        with pytest.raises(TypeError):
            cycle_total_count(n)


class TestBlockingRunShapes:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_closed_form_runs(self, n):
        cn = graph_generator("cycle", n)
        for c in cyclic_outcomes(n):
            pi = expand_cyclic(c)
            for j, expected in _expected_blocking_words(c).items():
                assert blocking_sequence(j, pi, cn).elements == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_decreasing_second_largest_run(self, n):
        # the run for n-1 in a backwards rotation from start <= n-2
        cn = graph_generator("cycle", n)
        for start in range(1, n - 1):
            pi = Permutation(decreasing_word(start, n))
            run = blocking_sequence(n - 1, pi, cn)
            assert run.elements == tuple(range(start, 0, -1)) + (n, n - 1)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_increasing_wrapped_runs(self, n):
        # the run for 3 <= j < start in a forwards rotation, start >= 4
        cn = graph_generator("cycle", n)
        for start in range(4, n + 1):
            pi = Permutation(increasing_word(start, n))
            for j in range(3, start):
                run = blocking_sequence(j, pi, cn)
                assert run.elements == (n,) + tuple(range(1, j + 1))
