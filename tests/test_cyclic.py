import itertools
import tracemalloc
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkfun import (
    Component,
    InversionSequence,
    NotCyclicPreference,
    Permutation,
    SearchCapExceeded,
    classical_park,
    components,
    count_cyclic_brute,
    cyclic_fibre_size,
    cyclic_total_count,
    enumerate_cyclic_pf,
    identity_permutation,
    inv_seq,
    inversion_number,
    is_cyclic_pf,
    make_preference,
    perm_from_inv_seq,
    psi,
    psi_inverse,
)


def all_perms(n):
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def all_inv_seqs(n):
    return itertools.product(*(range(i) for i in range(1, n + 1)))


class TestComponents:
    def test_worked_example(self):
        blocks = components(Permutation((3, 1, 2, 4, 8, 6, 5, 7)))
        assert [c.word for c in blocks] == [(3, 1, 2), (4,), (8, 6, 5, 7)]
        assert [(c.start, c.end) for c in blocks] == [(1, 3), (4, 4), (5, 8)]

    def test_identity_gives_singletons(self):
        blocks = components(identity_permutation(5))
        assert [c.word for c in blocks] == [(k,) for k in range(1, 6)]

    def test_nine_letter_example(self):
        blocks = components(Permutation((3, 4, 1, 2, 7, 8, 6, 5, 9)))
        assert [c.word for c in blocks] == [(3, 4, 1, 2), (7, 8, 6, 5), (9,)]

    def test_equal_subwords_in_different_hosts_differ(self):
        a = components(Permutation((1, 3, 2)))[0]
        b = components(Permutation((1, 2, 3)))[0]
        assert a.word == b.word == (1,)
        assert a != b

    def test_component_validation(self):
        host = Permutation((2, 1, 3))
        with pytest.raises(ValueError):
            Component(host, 1, 3)  # not minimal: closes at position 2
        with pytest.raises(ValueError):
            Component(host, 2, 3)  # values {1, 3} are not the interval {2, 3}
        assert Component(host, 1, 2).word == (2, 1)

    def test_refusal_names_a_long_word_by_its_start(self):
        """A refused component names its host, and a refused permutation its
        word, by the start and the number of values; a short word in full."""
        host = Permutation(tuple(range(3000, 0, -1)))
        with pytest.raises(ValueError, match=r"^positions 1\.\.2 of \(3000, 2999, .*\.\.\. \(3000 values\) do"):
            Component(host, 1, 2)
        with pytest.raises(ValueError, match=r"^\(1, 1, .*\.\.\. \(3000 values\) is not a permutation"):
            Permutation((1,) * 3000)
        with pytest.raises(ValueError, match=r"^positions 2\.\.3 of \(2, 1, 3\) do not"):
            Component(Permutation((2, 1, 3)), 2, 3)

    def test_component_size(self):
        assert [c.size for c in components(Permutation((2, 1, 3, 5, 6, 4)))] == [2, 1, 3]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_greedy_cuts_match_quadratic_minimality(self, n):
        for pi in all_perms(n):
            got = [(c.start, c.end) for c in components(pi)]
            # reference: repeatedly take the shortest prefix of the rest that
            # fills its own position interval
            expected = []
            start = 1
            while start <= n:
                end = start
                while sorted(pi.word[start - 1 : end]) != list(range(start, end + 1)):
                    end += 1
                expected.append((start, end))
                start = end + 1
            assert got == expected


class TestInversionNumber:
    def test_worked_example(self):
        pi = Permutation((3, 1, 5, 2, 4, 7, 6))
        assert inversion_number(3, pi) == 2
        assert inversion_number(5, pi) == 2
        assert inversion_number(7, pi) == 1
        for v in (1, 2, 4, 6):
            assert inversion_number(v, pi) == 0

    def test_identity_has_none(self):
        for v in range(1, 6):
            assert inversion_number(v, identity_permutation(5)) == 0

    def test_reversal(self):
        pi = Permutation((3, 2, 1))
        assert [inversion_number(v, pi) for v in (1, 2, 3)] == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            inversion_number(4, Permutation((2, 1, 3)))


class TestInvSeq:
    def test_worked_example(self):
        assert inv_seq(Permutation((4, 1, 5, 3, 2))).entries == (0, 0, 1, 3, 2)

    def test_identity(self):
        assert inv_seq(identity_permutation(4)).entries == (0, 0, 0, 0)

    def test_nine_letter_example(self):
        assert inv_seq(Permutation((3, 4, 1, 2, 7, 8, 6, 5, 9))).entries == (
            0, 0, 2, 2, 0, 1, 2, 2, 0,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            InversionSequence((1, 0))  # first entry must be 0
        with pytest.raises(ValueError):
            InversionSequence((0, 2))  # second entry must be < 2
        with pytest.raises(ValueError, match="not an integer"):
            InversionSequence((0, 1.0))
        with pytest.raises(ValueError, match="not an integer"):
            InversionSequence((False, True))


class TestPermFromInvSeq:
    def test_worked_example(self):
        assert perm_from_inv_seq((0, 0, 1, 3, 2)).word == (4, 1, 5, 3, 2)

    def test_zeros_give_identity(self):
        assert perm_from_inv_seq((0,) * 6) == identity_permutation(6)

    def test_ten_letter_example(self):
        assert perm_from_inv_seq((0, 1, 0, 1, 1, 0, 3, 0, 0, 2)).word == (
            2, 1, 4, 7, 5, 3, 6, 10, 8, 9,
        )

    def test_rejects_non_inversion_sequences(self):
        with pytest.raises(ValueError):
            perm_from_inv_seq((0, 0, 5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_round_trip_exhaustive(self, n):
        for pi in all_perms(n):
            assert perm_from_inv_seq(inv_seq(pi)) == pi
        for entries in all_inv_seqs(n):
            assert inv_seq(perm_from_inv_seq(entries)).entries == entries

    @given(st.permutations(list(range(1, 10))))
    def test_round_trip_random(self, word):
        pi = Permutation(tuple(word))
        assert perm_from_inv_seq(inv_seq(pi)) == pi


class TestIsCyclicPf:
    def test_worked_example(self):
        assert is_cyclic_pf(make_preference((4, 4, 6, 6, 7, 9, 7, 1, 2, 1))) == 8

    def test_identity(self):
        assert is_cyclic_pf(make_preference((1, 2, 3, 4))) == 1

    def test_non_cyclic(self):
        assert is_cyclic_pf(make_preference((2, 1, 2, 2))) is None

    def test_non_parking_function(self):
        assert is_cyclic_pf(make_preference((3, 3, 3))) is None


class TestCounts:
    def test_fibre_sizes_small(self):
        assert [cyclic_fibre_size(i, 3) for i in (1, 2, 3)] == [6, 2, 2]

    def test_first_start_gives_factorial(self):
        for n in (1, 4, 7):
            assert cyclic_fibre_size(1, n) == factorial(n)

    def test_large_instance(self):
        assert cyclic_fibre_size(8, 10) == factorial(3) * factorial(7) == 30240

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fibre_sizes_match_brute_force(self, n):
        per_start: dict[int, int] = {}
        for p in enumerate_cyclic_pf(n):
            start = classical_park(p).outcome.word[0]
            per_start[start] = per_start.get(start, 0) + 1
        for start in range(1, n + 1):
            assert per_start.get(start, 0) == cyclic_fibre_size(start, n)

    def test_total_sequence(self):
        assert [cyclic_total_count(n) for n in range(1, 6)] == [1, 3, 10, 40, 192]

    def test_total_equals_sum_of_fibre_sizes(self):
        # The total splits 1..n in halves: n = 2^k - 1, 2^k and 2^k + 1 meet
        # every shape of split boundary.
        for n in [*range(1, 61), *(2**k + d for k in range(2, 10) for d in (-1, 0, 1)), 500, 2000]:
            total = sum(cyclic_fibre_size(start, n) for start in range(1, n + 1))
            assert cyclic_total_count(n) == total
            if n <= 60:
                assert total == sum(
                    factorial(n + 1 - start) * factorial(start - 1) for start in range(1, n + 1)
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_total_matches_brute_and_components(self, n):
        brute = count_cyclic_brute(n)
        comp_total = sum(len(components(pi)) for pi in all_perms(n))
        assert cyclic_total_count(n) == brute == comp_total

    @pytest.mark.parametrize("n", [0, -1])
    def test_sweeps_refuse_n_below_one_as_the_closed_form_does(self, n):
        for count in (cyclic_total_count, count_cyclic_brute, lambda n: list(enumerate_cyclic_pf(n))):
            with pytest.raises(ValueError, match=r"^need n >= 1$"):
                count(n)

    @pytest.mark.parametrize("n", [5.0, 7.5])
    def test_total_non_integer_n_is_a_type_error(self, n):
        with pytest.raises(TypeError):
            cyclic_total_count(n)

    def test_brute_refusal_past_the_int_digit_limit(self):
        # 1500^1500 has over 4,300 digits, more than Python prints by default.
        with pytest.raises(SearchCapExceeded, match="exceeds the cap"):
            count_cyclic_brute(1500)

    @pytest.mark.parametrize(
        "sweep", [count_cyclic_brute, lambda n: list(enumerate_cyclic_pf(n))], ids=["count", "enumerate"]
    )
    def test_refused_sweep_builds_nothing_of_size_n(self, sweep):
        """The cap is read before the shared friend set and the n increasing
        rotations are built: refusing n = 1,000,000 allocates no set of n
        labels (one takes about 30 MB)."""
        tracemalloc.start()
        try:
            with pytest.raises(SearchCapExceeded, match="exceeds the cap"):
                sweep(1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_component_count_n7(self):
        assert cyclic_total_count(7) == sum(len(components(pi)) for pi in all_perms(7))


class TestPsi:
    def test_worked_example(self):
        c = psi(make_preference((4, 4, 6, 6, 7, 9, 7, 1, 2, 1)))
        assert c.underlying.word == (2, 1, 4, 7, 5, 3, 6, 10, 8, 9)
        assert c.word == (10, 8, 9)
        assert (c.start, c.end) == (8, 10)

    def test_identity_row(self):
        c = psi(make_preference((1, 2, 3)))
        assert c.underlying == identity_permutation(3)
        assert (c.start, c.end) == (1, 1)

    def test_third_rotation_row(self):
        c = psi(make_preference((2, 2, 1)))
        assert c.underlying.word == (2, 1, 3)
        assert (c.start, c.end) == (3, 3)

    def test_rejects_non_cyclic(self):
        with pytest.raises(NotCyclicPreference):
            psi(make_preference((2, 1, 2, 2)))

    def test_rejects_non_parking(self):
        with pytest.raises(NotCyclicPreference):
            psi(make_preference((2, 2, 2)))


class TestPsiInverse:
    def test_worked_example(self):
        host = Permutation((3, 4, 1, 2, 7, 8, 6, 5, 9))
        c = next(b for b in components(host) if b.start == 5)
        p = psi_inverse(c)
        assert p.entries == (6, 7, 6, 7, 1, 1, 1, 2, 5)
        res = classical_park(p)
        assert res.outcome.word == (5, 6, 7, 8, 9, 1, 2, 3, 4)
        assert res.displacement == inv_seq(host).entries

    def test_identity_component(self):
        for n in (1, 3, 6):
            c = components(identity_permutation(n))[0]
            assert psi_inverse(c).entries == tuple(range(1, n + 1))

    def test_table_row(self):
        host = Permutation((1, 3, 2))
        c = next(b for b in components(host) if b.start == 2)
        assert psi_inverse(c).entries == (3, 1, 1)


class TestBijection:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_round_trips_and_properties(self, n):
        images = []
        for p in enumerate_cyclic_pf(n):
            res = classical_park(p)
            start = res.outcome.word[0]
            c = psi(p)
            assert psi_inverse(c) == p
            # the component minimum is the car parked in spot 1
            assert min(c.word) == c.start == start
            # displacements are the inversion numbers in the host
            host = c.underlying
            for j in range(1, n + 1):
                assert res.displacement[j - 1] == inversion_number(j, host)
            images.append((c.underlying.word, c.start))
        everything = [
            (pi.word, c.start) for pi in all_perms(n) for c in components(pi)
        ]
        assert sorted(images) == sorted(everything)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reverse_round_trip(self, n):
        for pi in all_perms(n):
            for c in components(pi):
                assert psi(psi_inverse(c)) == c

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_displacement_fibres_match_component_counts(self, n):
        by_disp: dict[tuple, int] = {}
        for p in enumerate_cyclic_pf(n):
            d = classical_park(p).displacement
            by_disp[d] = by_disp.get(d, 0) + 1
        for entries in all_inv_seqs(n):
            expected = len(components(perm_from_inv_seq(entries)))
            assert by_disp.get(entries, 0) == expected
