import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkfun import (
    Failure,
    LotState,
    Permutation,
    Success,
    SearchCapExceeded,
    all_labelled_graphs,
    brute_fibre_counts,
    classical_park,
    count_cyclic_brute,
    enumerate_cyclic_pf,
    enumerate_fpf,
    count_fpf_brute,
    enumerate_fibre,
    fibre_size,
    friendship_park,
    graph_generator,
    hamiltonian_paths,
    is_available,
    is_friendship_pf,
    is_hamiltonian_path,
    is_parking_function,
    make_graph,
    make_preference,
    total_fpf_count,
)
from parkfun import friendship
from parkfun.limits import BadCapSetting, brute_cap, ensure_sweep_within_cap
from tests.conftest import brute_fibres_by_outcome, small_graphs

STAR = make_graph(4, [(1, 2), (1, 3), (1, 4)])


class TestLotState:
    def test_with_cars(self):
        state = LotState.with_cars(4, {2: 1, 1: 2})
        assert state.car_at(2) == 1
        assert state.car_at(1) == 2
        assert state.car_at(3) is None

    def test_rejects_duplicate_car(self):
        with pytest.raises(ValueError):
            LotState((1, 1, None))

    def test_place_is_functional(self):
        empty = LotState.empty(3)
        placed = empty.place(2, 1)
        assert empty.car_at(2) is None
        assert placed.car_at(2) == 1
        with pytest.raises(ValueError):
            placed.place(2, 2)


class TestIsAvailable:
    def test_blocked_by_stranger(self, c4):
        state = LotState.with_cars(4, {2: 1, 1: 2})
        assert not is_available(state, c4, car=3, spot=3)

    def test_empty_lot_everything_available(self, c4):
        state = LotState.empty(4)
        for car in range(1, 5):
            for spot in range(1, 5):
                assert is_available(state, c4, car, spot)

    def test_friends_on_both_sides(self, c4):
        state = LotState.with_cars(4, {2: 1, 1: 2, 4: 3})
        assert is_available(state, c4, car=4, spot=3)

    def test_occupied_spot_never_available(self, c4):
        state = LotState.with_cars(4, {2: 1})
        assert not is_available(state, c4, car=2, spot=2)

    def test_spot_out_of_range(self, c4):
        with pytest.raises(ValueError):
            is_available(LotState.empty(4), c4, car=1, spot=5)

    def test_lot_size_must_match_the_graph(self, c4):
        with pytest.raises(ValueError, match="the lot has 5 spots but the graph has 4 vertices"):
            is_available(LotState.empty(5), c4, car=1, spot=1)


class TestFriendshipPark:
    def test_worked_example(self, c4):
        res = friendship_park(make_preference((2, 1, 2, 2)), c4)
        assert isinstance(res, Success)
        assert res.outcome.word == (2, 1, 4, 3)

    def test_failing_example(self, c4):
        assert friendship_park(make_preference((4, 2, 2, 1)), c4) == Failure(car=3)

    def test_car_one_parks_at_preference(self, c4):
        for entries in itertools.product(range(1, 5), repeat=4):
            res = friendship_park(make_preference(entries), c4)
            if isinstance(res, Success):
                assert res.outcome.word[entries[0] - 1] == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_graph_equals_classical(self, n):
        kn = graph_generator("complete", n)
        for entries in itertools.product(range(1, n + 1), repeat=n):
            p = make_preference(entries)
            assert friendship_park(p, kn) == classical_park(p)

    def test_dimension_mismatch(self, c4):
        with pytest.raises(ValueError):
            friendship_park(make_preference((1, 2, 3)), c4)

    def test_outcome_is_hamiltonian_path(self, c4):
        for entries in itertools.product(range(1, 5), repeat=4):
            res = friendship_park(make_preference(entries), c4)
            if isinstance(res, Success):
                assert is_hamiltonian_path(res.outcome, c4)


class TestIsFriendshipPf:
    def test_examples(self, c4):
        assert is_friendship_pf(make_preference((2, 1, 2, 2)), c4)
        assert not is_friendship_pf(make_preference((4, 2, 2, 1)), c4)

    def test_increasing_cycle_witness(self, c4):
        p = make_preference((2, 3, 1, 1))
        res = friendship_park(p, c4)
        assert isinstance(res, Success)
        assert res.outcome.word == (4, 1, 2, 3)


class TestEnumerateFpf:
    def test_c4_contents(self, c4):
        stream = [p.entries for p in enumerate_fpf(c4)]
        assert (2, 1, 2, 2) in stream
        assert (4, 2, 2, 1) not in stream
        assert stream == sorted(stream)
        assert len(stream) == 65

    def test_no_hamiltonian_path_empty(self):
        assert list(enumerate_fpf(STAR)) == []

    def test_c3_total(self):
        assert len(list(enumerate_fpf(graph_generator("cycle", 3)))) == 16

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "100")
        with pytest.raises(SearchCapExceeded):
            list(enumerate_fpf(graph_generator("cycle", 4)))
        # force overrides the cap
        assert len(list(enumerate_fpf(graph_generator("cycle", 4), force=True))) == 65

    def test_cap_refusal_past_the_int_digit_limit(self):
        # 1600^1600 has over 4,300 digits, more than Python prints by default.
        with pytest.raises(SearchCapExceeded, match="exceeds the cap"):
            count_fpf_brute(graph_generator("cycle", 1600))

    def test_hostile_n_refused_without_building_n_to_the_n(self, monkeypatch):
        monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)

        class NoPower(int):
            def __pow__(self, other, mod=None):
                raise AssertionError("n ** n was built")

        # 2,000,000^2,000,000 takes seconds to build; n alone puts it past the cap.
        with pytest.raises(SearchCapExceeded, match=r"search space of more than 10\^\d+ pref"):
            ensure_sweep_within_cap(NoPower(2_000_000))
        # n ** n is built only while n * floor(log2 n) <= 17,200; n = 1721 is past it.
        with pytest.raises(SearchCapExceeded, match=r"search space of more than 10\^5177 pref"):
            ensure_sweep_within_cap(NoPower(1721))
        # Below the digit threshold the refusal still names the size in decimal.
        with pytest.raises(SearchCapExceeded, match="search space of 387420489 preferences"):
            ensure_sweep_within_cap(9)
        ensure_sweep_within_cap(8)
        # The stand-in for n ** n is above the largest cap the digit limit
        # admits, 4,300 nines, and named apart from it.
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "9" * 4300)
        with pytest.raises(SearchCapExceeded) as info:
            ensure_sweep_within_cap(NoPower(2000))
        assert str(info.value).startswith(
            "search space of more than 10^5177 preferences exceeds the cap of more than 10^4299;"
        )
        ensure_sweep_within_cap(1000)  # 10^3000 preferences, under that cap
        # A malformed cap is reported whatever the size.
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "abc")
        with pytest.raises(BadCapSetting):
            ensure_sweep_within_cap(NoPower(2_000_000))

    @pytest.mark.parametrize("n, power", [(1720, 5565), (1721, 5177)])
    def test_n_to_the_n_is_built_up_to_the_stand_in_threshold(self, monkeypatch, n, power):
        # 1720 * floor(log2 1720) is 17,200 exactly, the last n whose n ** n
        # is built; 1721's refusal names the power of two standing in for it.
        monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
        with pytest.raises(SearchCapExceeded) as info:
            ensure_sweep_within_cap(n)
        assert str(info.value).startswith(f"search space of more than 10^{power} preferences ")

    def test_size_past_40_digits_is_named_by_the_largest_power_of_ten_below_it(self):
        powers = [10**k for k in range(4302)]
        sizes = [p + d for p in powers[40:4301] for d in (0, 1)]
        sizes += [1 << b for b in range(powers[40].bit_length(), powers[4300].bit_length())]
        for size in sizes:
            text = str(SearchCapExceeded(size, 1))
            k = int(text.removeprefix("search space of more than 10^").partition(" ")[0])
            assert powers[k] < size <= powers[k + 1], size

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_cap_setting_is_a_value_error(self, monkeypatch, raw):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", raw)
        with pytest.raises(ValueError, match="PARKFUN_BRUTE_CAP"):
            count_fpf_brute(graph_generator("cycle", 3))
        # a forced sweep never reads the cap
        assert count_fpf_brute(graph_generator("cycle", 3), force=True) == 16

    def test_cap_setting_takes_ascii_digits_only(self, monkeypatch):
        # int() alone would read "１０" as 10.
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "１０")
        with pytest.raises(BadCapSetting) as info:
            brute_cap()
        assert str(info.value) == "PARKFUN_BRUTE_CAP must be an integer, got '１０'"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_graph_count_is_classical(self, n):
        assert count_fpf_brute(graph_generator("complete", n)) == (n + 1) ** (n - 1)


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=7))
def test_sweeps_agree_with_per_preference_oracle(graph):
    """Paths and total against S_n filtered by edges and per-path fibre sizes
    (n <= 7); the sweeps against per-preference simulation (n <= 5)."""
    n = graph.n
    paths = list(hamiltonian_paths(graph))
    assert [pi.word for pi in paths] == [
        w
        for w in itertools.permutations(range(1, n + 1))
        if is_hamiltonian_path(Permutation(w), graph)
    ]
    assert total_fpf_count(graph) == sum(fibre_size(pi, graph) for pi in paths)
    if n > 5:
        return
    oracle = brute_fibres_by_outcome(graph)
    assert brute_fibre_counts(graph) == {word: len(f) for word, f in oracle.items()}
    listed = [p.entries for p in enumerate_fpf(graph)]
    assert listed == sorted(set().union(*oracle.values()))
    assert count_fpf_brute(graph) == len(listed) == total_fpf_count(graph)
    for pi in paths:
        box = {p.entries for p in enumerate_fibre(pi, graph)}
        assert fibre_size(pi, graph) == len(box)
        assert box == oracle[pi.word]


def _replay_on_lot(entries, graph):
    """Replay each car on a LotState: it takes the first spot at or after its
    preference that `is_available` allows. No code of the kernel is used."""
    n = graph.n
    state = LotState.empty(n)
    for car, pref in enumerate(entries, start=1):
        spot = next((s for s in range(pref, n + 1) if is_available(state, graph, car, s)), None)
        if spot is None:
            return Failure(car)
        state = state.place(spot, car)
    spot_of = {car: s for s, car in enumerate(state.occupancy, start=1)}
    displacement = tuple(spot_of[car] - entries[car - 1] for car in range(1, n + 1))
    return Success(Permutation(state.occupancy), displacement)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_follows_the_stated_availability_rule(data):
    """friendship_park's result is the replay's."""
    graph = data.draw(small_graphs(max_n=6))
    n = graph.n
    entries = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    assert friendship_park(make_preference(entries), graph) == _replay_on_lot(entries, graph)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_follows_the_stated_availability_rule_on_every_small_input(n):
    """Every labelled graph on n vertices and every preference in [n]^n:
    16,609 cases over n <= 4."""
    for graph in all_labelled_graphs(n):
        for entries in itertools.product(range(1, n + 1), repeat=n):
            expected = _replay_on_lot(entries, graph)
            assert friendship_park(make_preference(entries), graph) == expected, (graph, entries)


# The sweep's work, as calls of the kernel: one per preference of [5]^5,
# whatever the caller keeps of the words. A cheaper call moves no row; a
# sweep that skips preferences must update them.
C5 = graph_generator("cycle", 5)
SWEEPS = {
    "count_fpf_brute": lambda: count_fpf_brute(C5),
    "brute_fibre_counts": lambda: brute_fibre_counts(C5),
    "enumerate_fpf": lambda: list(enumerate_fpf(C5)),
    "count_cyclic_brute": lambda: count_cyclic_brute(5),
    "enumerate_cyclic_pf": lambda: list(enumerate_cyclic_pf(5)),
}


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=list(SWEEPS))
def test_sweep_simulates_each_preference_once(monkeypatch, sweep):
    calls = 0
    real = friendship._run

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(friendship, "_run", counting)
    sweep()
    assert calls == 5 ** 5 == 3125


class TestContainment:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_friendship_subset_of_classical_all_graphs(self, n):
        for graph in all_labelled_graphs(n):
            for entries in itertools.product(range(1, n + 1), repeat=n):
                p = make_preference(entries)
                if is_friendship_pf(p, graph):
                    assert is_parking_function(p)

    def test_friendship_subset_random_graphs_n5(self):
        rng = random.Random(11)
        pairs = list(itertools.combinations(range(1, 6), 2))
        for _ in range(6):
            graph = make_graph(5, [e for e in pairs if rng.random() < 0.5])
            for entries in itertools.product(range(1, 6), repeat=5):
                p = make_preference(entries)
                if is_friendship_pf(p, graph):
                    assert is_parking_function(p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classical_outcome_transfer(self, n):
        for graph in all_labelled_graphs(n):
            for entries in itertools.product(range(1, n + 1), repeat=n):
                p = make_preference(entries)
                res = classical_park(p)
                if isinstance(res, Success) and is_hamiltonian_path(res.outcome, graph):
                    fres = friendship_park(p, graph)
                    assert fres == res

    @pytest.mark.parametrize("n", [4, 5])
    def test_witness_beyond_hamiltonian_outcomes(self, n):
        """Some friendship parking functions have non-Hamiltonian classical outcomes."""
        cn = graph_generator("cycle", n)
        witnesses = []
        for entries in itertools.product(range(1, n + 1), repeat=n):
            p = make_preference(entries)
            if not is_friendship_pf(p, cn):
                continue
            res = classical_park(p)
            if not is_hamiltonian_path(res.outcome, cn):
                witnesses.append(entries)
        assert witnesses
        if n == 4:
            assert (2, 1, 2, 2) in witnesses
