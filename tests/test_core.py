import copy
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkfun import (
    BlockingSequence,
    Component,
    CyclicOutcome,
    Direction,
    Failure,
    FibreCharacterisation,
    FriendshipGraph,
    InversionSequence,
    LotState,
    ParkingPreference,
    Permutation,
    Success,
    all_labelled_graphs,
    count_cyclic_brute,
    cycle_total_count,
    cyclic_fibre_size,
    cyclic_outcomes,
    cyclic_total_count,
    decreasing_word,
    enumerate_cyclic_pf,
    enumerate_fibre,
    enumerate_fpf,
    graph_generator,
    hamiltonian_paths,
    identity_permutation,
    increasing_word,
    inverse_position,
    inversion_number,
    is_available,
    is_blocker,
    make_graph,
    make_preference,
    parse_graph_text,
)
from parkfun.core import NotAnInteger, parse_graph_header
from parkfun.limits import _read_int, _shown
from parkfun.structure import fibre_characterisation
from parkfun.verify import CheckResult, run_suite


class TestMakePreference:
    def test_worked_example(self):
        p = make_preference((3, 1, 1, 2))
        assert p.entries == (3, 1, 1, 2)
        assert p.n == 4

    def test_smallest(self):
        assert make_preference((1,)).n == 1

    def test_entry_exceeds_n(self):
        with pytest.raises(ValueError):
            make_preference((5, 1))

    def test_zero_entry(self):
        with pytest.raises(ValueError):
            make_preference((0, 1))

    def test_empty(self):
        with pytest.raises(ValueError):
            make_preference(())

    @pytest.mark.parametrize("entries", [(1.0, 2.0), (True, True), (1, "2")])
    def test_non_int_entries(self, entries):
        with pytest.raises(ValueError, match="not an integer"):
            make_preference(entries)


class TestPermutation:
    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_rejects_wrong_values(self):
        with pytest.raises(ValueError):
            Permutation((2, 3, 4))
        with pytest.raises(ValueError, match="not an integer"):
            Permutation((2.0, 1.0))
        with pytest.raises(ValueError, match="not an integer"):
            Permutation((True,))

    def test_inverse_position_worked_example(self):
        assert inverse_position(Permutation((2, 3, 1, 4)), 1) == 3

    def test_inverse_position_identity(self):
        ident = identity_permutation(6)
        for k in range(1, 7):
            assert inverse_position(ident, k) == k

    def test_inverse_position_direct_scan(self):
        assert inverse_position(Permutation((4, 1, 5, 3, 2)), 5) == 3

    def test_inverse_position_out_of_range(self):
        with pytest.raises(ValueError):
            inverse_position(Permutation((2, 1)), 3)

    @given(st.permutations(list(range(1, 8))))
    def test_inverse_position_round_trip(self, word):
        perm = Permutation(tuple(word))
        for value in range(1, 8):
            assert perm.word[inverse_position(perm, value) - 1] == value


class TestGraphGenerator:
    def test_cycle_4(self):
        g = graph_generator("cycle", 4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})

    def test_complete_2(self):
        assert graph_generator("complete", 2).edges == frozenset({(1, 2)})

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            graph_generator("cycle", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            graph_generator("wheel", 5)

    def test_path(self):
        g = graph_generator("path", 3)
        assert g.edges == frozenset({(1, 2), (2, 3)})

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_cycle_is_two_regular(self, n):
        g = graph_generator("cycle", n)
        assert len(g.edges) == n
        for v in range(1, n + 1):
            assert len(g.neighbors(v)) == 2


class TestFriendshipGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 4)])

    @pytest.mark.parametrize(
        "n, edges", [(3, [(1.0, 2)]), (3, [(1, True)]), (3.0, []), (True, [])]
    )
    def test_rejects_non_int_labels(self, n, edges):
        with pytest.raises(ValueError, match="not an integer"):
            make_graph(n, edges)

    def test_unhashable_vertex_is_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^vertex \[1\] is not an integer$"):
            make_graph(3, [([1], 2)])

    def test_factories_are_the_classes(self):
        assert make_graph is FriendshipGraph
        assert make_preference is ParkingPreference

    def test_duplicate_edges_collapse(self):
        g = make_graph(3, [(1, 2), (2, 1)])
        assert g.edges == frozenset({(1, 2)})

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(
                        st.integers(1, n), st.integers(1, n)
                    ).filter(lambda e: e[0] != e[1])
                ),
            )
        )
    )
    def test_adjacency_symmetric(self, payload):
        n, edges = payload
        g = make_graph(n, edges)
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                assert g.adjacent(u, v) == g.adjacent(v, u)

    def test_all_labelled_graphs_count(self):
        assert sum(1 for _ in all_labelled_graphs(4)) == 64
        assert sum(1 for _ in all_labelled_graphs(3)) == 8


def _held(build):
    """What build() returns, and the bytes it holds (by tracemalloc)."""
    tracemalloc.start()
    try:
        value = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return value, held


class TestGraphMemory:
    """A graph holds its neighbour sets and nothing more. Each bound is
    stated against a reference built in the test, so it holds on every
    interpreter."""

    def test_a_graph_holds_what_its_neighbour_sets_hold(self):
        n = 20_000
        graph, held = _held(lambda: graph_generator("cycle", n))
        # The same neighbour tuple, built directly.
        reference, reference_held = _held(
            lambda: tuple(frozenset({(v - 2) % n + 1, v % n + 1}) if v else frozenset() for v in range(n + 1))
        )
        assert graph._neighbors == reference
        assert held <= 1.1 * reference_held

    def test_isolated_vertices_share_one_empty_set(self):
        n = 200_000
        graph, held = _held(lambda: make_graph(n, [(1, 2)]))
        # One slot per vertex is 1.6 MB; one empty set per vertex held 42.7.
        assert graph.edges == frozenset({(1, 2)})
        assert held < 4_000_000

    def test_refusal_checks_every_edge_before_anything_grows_with_n(self):
        """A self-loop among the edges is refused before the n + 1 neighbour
        slots are allocated: at n = 10^12 they would take 8 TB."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                make_graph(10**12, [(1, 2), (3, 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "self-loop at vertex 3"
        assert peak < 1_000_000


def _reference_graph(n, edges):
    """(edges, neighbour sets) as the graph constructor built them when it
    stored both, with its per-edge checks; raises what it raised."""
    if type(n) is not int:
        raise ValueError(f"vertex count {_shown(n)} is not an integer")
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    canonical = set()
    for e in edges:
        u, v = e
        for w in (u, v):
            if type(w) is not int:
                raise ValueError(f"vertex {_shown(w)} is not an integer")
            if not 1 <= w <= n:
                raise ValueError(f"vertex {_shown(w)} is outside [1, {_shown(n)}]")
        if u == v:
            raise ValueError(f"self-loop at vertex {_shown(u)}")
        canonical.add((min(u, v), max(u, v)))
    nbr = [set() for _ in range(n + 1)]
    for u, v in canonical:
        nbr[u].add(v)
        nbr[v].add(u)
    return frozenset(canonical), tuple(frozenset(s) for s in nbr)


def _assert_builds_as_reference(n, edges):
    try:
        expected = _reference_graph(n, edges)
    except Exception as refusal:
        with pytest.raises(Exception) as info:
            make_graph(n, edges)
        assert (type(info.value), str(info.value)) == (type(refusal), str(refusal))
    else:
        graph = make_graph(n, edges)
        assert (graph.edges, graph._neighbors) == expected


@st.composite
def _hostile_edge_lists(draw):
    """n, and edges from vertices in and out of [1, n], non-integers,
    self-loops, duplicates and reversed pairs."""
    n = draw(st.integers(1, 6))
    vertex = st.one_of(
        st.integers(1, n),
        st.sampled_from([0, n + 1, -1, 10**5000, -(10**5000), True, False, 1.0, 2.5, "1", None]),
        st.lists(st.integers(1, n), max_size=1),
    )
    edges = draw(st.lists(st.one_of(st.tuples(vertex, vertex), st.integers(1, n).map(lambda v: (v, v))), max_size=8))
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=4))
        edges += [e[::-1] if draw(st.booleans()) else e for e in again]
    return n, draw(st.permutations(edges))


class TestGraphMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_hostile_edge_lists())
    def test_hostile_edges(self, payload):
        _assert_builds_as_reference(*payload)

    def test_every_labelled_graph(self):
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    _assert_builds_as_reference(n, chosen)

    @pytest.mark.parametrize(
        "family, first, edges",
        [
            ("cycle", 3, lambda n: [(i, i % n + 1) for i in range(1, n + 1)]),
            ("complete", 1, lambda n: list(itertools.combinations(range(1, n + 1), 2))),
            ("path", 1, lambda n: [(i, i + 1) for i in range(1, n)]),
        ],
    )
    def test_generators(self, family, first, edges):
        for n in range(first, 9):
            graph = graph_generator(family, n)
            assert (graph.edges, graph._neighbors) == _reference_graph(n, edges(n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_edge_set_one_graph(data):
    """Order, orientation and repeats of the edges do not change the graph,
    its equality or its hash."""
    n = data.draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    given_edges = [e[::-1] if data.draw(st.booleans()) else e for e in chosen]
    given_edges += data.draw(st.lists(st.sampled_from(given_edges), max_size=4)) if given_edges else []
    graph = make_graph(n, data.draw(st.permutations(given_edges)))
    canonical = make_graph(n, sorted(chosen))
    assert graph == canonical and hash(graph) == hash(canonical)
    assert graph.edges == frozenset(chosen)


GRAPH_FILE = """\
# a 4-cycle
n 4
1 2
2 3

3 4
4 1
"""


class TestGraphFile:
    def test_parse(self):
        g = parse_graph_text(GRAPH_FILE)
        assert g == graph_generator("cycle", 4)

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_graph_text("1 2\n")
        with pytest.raises(ValueError, match="no 'n <count>' header"):
            parse_graph_header("# only a comment\n\n")

    def test_header_read_alone(self):
        # The edges are neither parsed nor built: a size check can come first.
        assert parse_graph_header("# big\n\nn 3000000\n1 2 3\n") == 3000000

    def test_bad_edge_line(self):
        with pytest.raises(ValueError):
            parse_graph_text("n 3\n1 2 3\n")

    def test_non_integer(self):
        with pytest.raises(ValueError):
            parse_graph_text("n 3\na b\n")


# Each value type: its fields by keyword, and its repr.
VALUES = [
    (ParkingPreference, {"entries": (3, 1, 1, 2)}, "ParkingPreference(entries=(3, 1, 1, 2))"),
    (Permutation, {"word": (2, 1)}, "Permutation(word=(2, 1))"),
    (
        FriendshipGraph,
        {"n": 3, "edges": frozenset({(2, 1)})},
        "FriendshipGraph(n=3, edges=frozenset({(1, 2)}))",
    ),
    (
        Success,
        {"outcome": Permutation((2, 1)), "displacement": (0, 1)},
        "Success(outcome=Permutation(word=(2, 1)), displacement=(0, 1))",
    ),
    (Failure, {"car": 2}, "Failure(car=2)"),
    (LotState, {"occupancy": (None, 1)}, "LotState(occupancy=(None, 1))"),
    (
        CyclicOutcome,
        {"direction": Direction.INCREASING, "start": 2, "n": 3},
        "CyclicOutcome(direction=<Direction.INCREASING: 'increasing'>, start=2, n=3)",
    ),
    (InversionSequence, {"entries": (0, 1)}, "InversionSequence(entries=(0, 1))"),
    (
        Component,
        {"underlying": Permutation((2, 1, 3)), "start": 1, "end": 2},
        "Component(underlying=Permutation(word=(2, 1, 3)), start=1, end=2)",
    ),
    (BlockingSequence, {"elements": (1, 2), "target": 2}, "BlockingSequence(elements=(1, 2), target=2)"),
    (
        FibreCharacterisation,
        {"outcome": Permutation((2, 1)), "spot_sets": ((1, 1), (1, 2))},
        "FibreCharacterisation(outcome=Permutation(word=(2, 1)), spot_sets=((1, 1), (1, 2)))",
    ),
    (
        CheckResult,
        {"name": "cycle n=3", "passed": True, "detail": "6 outcomes"},
        "CheckResult('cycle n=3', True, '6 outcomes')",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type(cls, fields, text):
    value = cls(*fields.values())
    assert repr(value) == text
    by_keyword = cls(**fields)
    assert by_keyword == value and hash(by_keyword) == hash(value)
    assert value != tuple(fields.values())
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_values_of_different_types_differ():
    assert Permutation((1,)) != ParkingPreference((1,))
    assert ParkingPreference((1,)) != InversionSequence((0,))


def test_graph_copies_rebuild_the_neighbour_sets(monkeypatch):
    built = []
    real = FriendshipGraph.__init__

    def counting(self, n, edges):
        built.append((n, edges))
        real(self, n, edges)

    graph = graph_generator("cycle", 4)
    monkeypatch.setattr(FriendshipGraph, "__init__", counting)
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert type(twin) is FriendshipGraph and twin == graph and hash(twin) == hash(graph)
        assert twin.neighbors(1) == frozenset({2, 4})
    assert built == [(4, graph.edges)] * 3


def _listed_items(n):
    """Every item the graph listings build unchecked, over every labelled
    graph on n vertices: each friendship parking function, each Hamiltonian
    path and each preference in that path's fibre box."""
    for graph in all_labelled_graphs(n):
        yield from enumerate_fpf(graph)
        for pi in hamiltonian_paths(graph):
            yield pi
            yield from enumerate_fibre(pi, graph)


LISTINGS = [("graphs", n) for n in range(1, 5)] + [("cyclic", n) for n in range(1, 6)]


@pytest.mark.parametrize("listing, n", LISTINGS, ids=[f"{name} n={n}" for name, n in LISTINGS])
def test_listed_items_equal_their_checked_construction(listing, n):
    """The listings skip the constructor's checks; each item is still the
    value the checked constructor builds from its word."""
    count = 0
    for item in _listed_items(n) if listing == "graphs" else enumerate_cyclic_pf(n):
        word = getattr(item, type(item)._fields[0])
        checked = type(item)(word)
        assert type(word) is tuple and checked == item and hash(checked) == hash(item)
        count += 1
    assert count


def test_copies_of_a_listed_item_run_the_constructor(monkeypatch):
    built = []
    real = ParkingPreference.__init__

    def counting(self, entries):
        built.append(entries)
        real(self, entries)

    monkeypatch.setattr(ParkingPreference, "__init__", counting)
    item = next(enumerate_fpf(graph_generator("cycle", 3)))
    assert built == []
    for twin in (copy.copy(item), copy.deepcopy(item), pickle.loads(pickle.dumps(item))):
        assert type(twin) is ParkingPreference and twin == item
    assert built == [(1, 1, 1)] * 3


# The three ways to copy a value, each of which calls its constructor again.
TWINS = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]


@pytest.mark.parametrize("twin", TWINS, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize(
    "value, message",
    [
        (ParkingPreference._unchecked((0, 1)), "entry 0 at position 1 is outside [1, 2]"),
        (Permutation._unchecked((1, 1)), "(1, 1) is not a permutation of [1, 2]"),
    ],
    ids=["preference", "permutation"],
)
def test_a_copy_checks_its_word(twin, value, message):
    """A word built unchecked is checked again by every copy: one out of
    range, which no listing builds, is refused as the constructor refuses it."""
    with pytest.raises(ValueError) as info:
        twin(value)
    assert str(info.value) == message


@pytest.mark.parametrize("twin", TWINS, ids=["copy", "deepcopy", "pickle"])
def test_a_graph_copy_checks_its_neighbour_sets(twin):
    """A copy rebuilds the graph from the edges its neighbour sets name, so a
    neighbour past n, which no constructor builds, is refused as the
    constructor refuses it."""
    graph = graph_generator("path", 3)
    object.__setattr__(graph, "_neighbors", (frozenset(), frozenset({2, 4}), frozenset({1, 3}), frozenset({2})))
    with pytest.raises(ValueError) as info:
        twin(graph)
    assert str(info.value) == "vertex 4 is outside [1, 3]"


# Every public entry point that checks a label (a value, vertex, spot or
# start) is an int in [1, n], with the word its message uses for the label.
N = 4
PERM = Permutation((2, 3, 1, 4))
C4 = graph_generator("cycle", N)
LOT = LotState.empty(N)
LABEL_CHECKS = {
    "inverse_position": ("value", lambda v: inverse_position(PERM, v)),
    "FriendshipGraph edge": ("vertex", lambda v: FriendshipGraph(N, frozenset({(1, v)}))),
    "adjacent": ("vertex", lambda v: C4.adjacent(v, 1)),
    "adjacent second": ("vertex", lambda v: C4.adjacent(1, v)),
    "neighbors": ("vertex", lambda v: C4.neighbors(v)),
    "CyclicOutcome": ("start", lambda v: CyclicOutcome(Direction.INCREASING, v, N)),
    "increasing_word": ("start", lambda v: increasing_word(v, N)),
    "decreasing_word": ("start", lambda v: decreasing_word(v, N)),
    "inversion_number": ("value", lambda v: inversion_number(v, PERM)),
    "cyclic_fibre_size": ("start", lambda v: cyclic_fibre_size(v, N)),
    "LotState": ("car", lambda v: LotState((v, None, None, None))),
    "LotState.with_cars": ("spot", lambda v: LotState.with_cars(N, {v: 1})),
    "LotState.with_cars car": ("car", lambda v: LotState.with_cars(N, {1: v})),
    "car_at": ("spot", lambda v: LOT.car_at(v)),
    "is_available": ("spot", lambda v: is_available(LOT, C4, 1, v)),
    "is_available car": ("vertex", lambda v: is_available(LOT, C4, v, 1)),
    "is_blocker": ("value", lambda v: is_blocker(v, 1, PERM, C4)),
    "is_blocker car": ("value", lambda v: is_blocker(1, v, PERM, C4)),
}


@pytest.mark.parametrize("v", [0, N + 1])
@pytest.mark.parametrize("what, check", LABEL_CHECKS.values(), ids=list(LABEL_CHECKS))
def test_label_outside_range_message(what, check, v):
    with pytest.raises(ValueError) as info:
        check(v)
    assert str(info.value) == f"{what} {v} is outside [1, {N}]"


# A label is an int: a bool or a float is refused even when it equals one.
@pytest.mark.parametrize("v", [True, 1.0, 2.5])
@pytest.mark.parametrize("what, check", LABEL_CHECKS.values(), ids=list(LABEL_CHECKS))
def test_label_not_an_int_message(what, check, v):
    with pytest.raises(ValueError) as info:
        check(v)
    assert str(info.value) == f"{what} {v} is not an integer"


# Every public entry point that takes a size (a number of cars, spots or
# vertices), with the word its message uses for the size.
SIZE_CHECKS = {
    "FriendshipGraph": ("vertex count", lambda n: FriendshipGraph(n, ())),
    "all_labelled_graphs": ("vertex count", lambda n: list(all_labelled_graphs(n))),
    "graph_generator cycle": ("size", lambda n: graph_generator("cycle", n)),
    "graph_generator complete": ("size", lambda n: graph_generator("complete", n)),
    "graph_generator path": ("size", lambda n: graph_generator("path", n)),
    "identity_permutation": ("n", identity_permutation),
    "LotState.empty": ("n", LotState.empty),
    "LotState.with_cars": ("n", lambda n: LotState.with_cars(n, {})),
    "CyclicOutcome": ("n", lambda n: CyclicOutcome(Direction.INCREASING, 1, n)),
    "cyclic_outcomes": ("n", lambda n: list(cyclic_outcomes(n))),
    "increasing_word": ("n", lambda n: increasing_word(1, n)),
    "decreasing_word": ("n", lambda n: decreasing_word(1, n)),
    "cycle_total_count": ("n", cycle_total_count),
    "cyclic_fibre_size": ("n", lambda n: cyclic_fibre_size(1, n)),
    "cyclic_total_count": ("n", cyclic_total_count),
    "count_cyclic_brute": ("n", count_cyclic_brute),
    "enumerate_cyclic_pf": ("n", lambda n: list(enumerate_cyclic_pf(n))),
    "run_suite": ("n", lambda n: run_suite("bijection", [n])),
}


# A size is an int: a bool or a float is refused even when it equals one, as
# NotAnInteger, both the ValueError of every refusal and the TypeError of
# Python's own refusal of a float count.
@pytest.mark.parametrize("n", [True, 2.0, 2.5])
@pytest.mark.parametrize("what, check", SIZE_CHECKS.values(), ids=list(SIZE_CHECKS))
def test_size_not_an_int_message(what, check, n):
    with pytest.raises(NotAnInteger) as info:
        check(n)
    assert isinstance(info.value, ValueError) and isinstance(info.value, TypeError)
    assert str(info.value) == f"{what} {n} is not an integer"


# Each word type: its word, which `n`, `len()` and iteration all read.
WORDS = [
    ParkingPreference((3, 1, 1, 2)),
    Permutation((2, 1, 3)),
    InversionSequence((0, 1, 0)),
    LotState((None, 2, None, 1)),
]


@pytest.mark.parametrize("value", WORDS, ids=[type(v).__name__ for v in WORDS])
def test_word_protocol(value):
    word = getattr(value, type(value)._fields[0])
    assert value.n == len(value) == len(word)
    assert tuple(value) == word


# Library refusals outside the label range, with their exact messages.
REFUSALS = {
    "empty permutation": (lambda: Permutation(()), "permutation must be non-empty"),
    "graph of no vertices": (
        lambda: FriendshipGraph(0, frozenset()),
        "graph needs at least one vertex",
    ),
    "short displacement": (
        lambda: Success(Permutation((1, 2)), (0,)),
        "displacement length must match the outcome",
    ),
    "negative displacement": (
        lambda: Success(Permutation((1, 2)), (0, -1)),
        "displacements are non-negative",
    ),
    "complete:0": (
        lambda: graph_generator("complete", 0),
        "complete graphs need at least 1 vertex",
    ),
    "path:0": (lambda: graph_generator("path", 0), "path graphs need at least 1 vertex"),
    "bad header": (
        lambda: parse_graph_header("n x"),
        "line 1: vertex count 'x' is not an integer",
    ),
    # int() alone would read these digits as 3.
    "non-ASCII header": (
        lambda: parse_graph_header("n ３"),
        "line 1: vertex count '３' is not an integer",
    ),
    "non-ASCII edge": (
        lambda: parse_graph_text("n 3\n1 2\n2 ３\n"),
        "line 3: edge endpoints must be integers, got '2 ３'",
    ),
    "cyclic_outcomes(2)": (lambda: list(cyclic_outcomes(2)), "cycle outcomes need n >= 3"),
    # No start label exists, so no CyclicOutcome is built to refuse these.
    "cyclic_outcomes(0)": (lambda: list(cyclic_outcomes(0)), "cycle outcomes need n >= 3"),
    "cyclic_outcomes(-5)": (lambda: list(cyclic_outcomes(-5)), "cycle outcomes need n >= 3"),
    "component at 0": (
        lambda: Component(Permutation((1, 2)), 0, 1),
        "positions 0..1 are outside [1, 2]",
    ),
    "cyclic_total_count(0)": (lambda: cyclic_total_count(0), "need n >= 1"),
    "cycle_total_count(2)": (lambda: cycle_total_count(2), "the cycle graph needs n >= 3"),
    "outcome on two vertices": (
        lambda: CyclicOutcome(Direction.INCREASING, 1, 2),
        "cycle outcomes need n >= 3",
    ),
    # A direction is a member: a reader of one that tested for one member
    # would take its name, or anything else, for the other.
    "direction by its name": (
        lambda: CyclicOutcome("increasing", 2, 5),
        "direction 'increasing' is not a Direction",
    ),
    "direction None": (lambda: CyclicOutcome(None, 1, 4), "direction None is not a Direction"),
    "identity of no values": (lambda: identity_permutation(0), "permutation must be non-empty"),
    "all graphs of no vertices": (lambda: list(all_labelled_graphs(0)), "graph needs at least one vertex"),
    "lot of -1 spots": (lambda: LotState.empty(-1), "a lot needs n >= 0 spots"),
    "block closed at its first position": (
        lambda: Component(Permutation((1, 2)), 1, 2),
        "block 1..2 is not minimal: it closes already at position 1",
    ),
    "family not a string": (lambda: graph_generator(["cycle"], 3), "unknown graph family ['cycle']"),
    "family an int": (lambda: graph_generator(5, 3), "unknown graph family 5"),
    "family None": (lambda: graph_generator(None, 3), "unknown graph family None"),
    # The 40-character bound on repeated text: kept whole at 40, clipped at 41.
    "family of 40 characters": (
        lambda: graph_generator("x" * 40, 3),
        f"unknown graph family '{'x' * 40}'",
    ),
    "family of 41 characters": (
        lambda: graph_generator("x" * 41, 3),
        f"unknown graph family '{'x' * 40}'... (41 characters)",
    ),
    # The digit limit: 4,300 characters are read as a number, 4,301 are not.
    "vertex of 4300 digits": (
        lambda: parse_graph_text("n 3\n1 " + "9" * 4300),
        f"vertex {'9' * 40}... (4300 characters) is outside [1, 3]",
    ),
    "number of 4301 characters": (
        lambda: _read_int("9" * 4301, "", lambda: "not read by length"),
        "a number of 4301 characters is past the 4300-digit limit",
    ),
    "run past its target": (
        lambda: BlockingSequence((1, 2), 1),
        "blocking sequence must end at its target",
    ),
    "interval per car": (
        lambda: FibreCharacterisation(Permutation((1, 2)), ((1, 1),)),
        "need exactly one spot interval per car",
    ),
    # A path of C_4, but of two vertices: no Hamiltonian path of the graph.
    "outcome shorter than the graph": (
        lambda: fibre_characterisation(Permutation((1, 2)), graph_generator("cycle", 4)),
        "(1, 2) is not a Hamiltonian path of the graph",
    ),
    "empty preference": (lambda: ParkingPreference(()), "preference must have at least one entry"),
    "entry below 1": (lambda: ParkingPreference((0, 1)), "entry 0 at position 1 is outside [1, 2]"),
    "entry past n": (lambda: ParkingPreference((1, 3)), "entry 3 at position 2 is outside [1, 2]"),
    "float entry": (lambda: ParkingPreference((1, 2.0)), "entry 2.0 at position 2 is not an integer"),
    "bool value": (lambda: Permutation((True,)), "value True at position 1 is not an integer"),
    "repeated value": (lambda: Permutation((1, 1, 2)), "(1, 1, 2) is not a permutation of [1, 3]"),
    "one value": (lambda: Permutation((2,)), "(2,) is not a permutation of [1, 1]"),
    "fifty values": (
        lambda: Permutation((1,) * 50),
        "(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (50 values) is not a permutation of [1, 50]",
    ),
}


@pytest.mark.parametrize("build, message", REFUSALS.values(), ids=list(REFUSALS))
def test_library_refusal_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# Refusals that repeat a value of any size, with how each names it.
LONG_VALUES = {
    "long entry": (lambda: ParkingPreference((1, 10 ** 4000)), "entry 1000"),
    "entry past the digit limit": (lambda: ParkingPreference((1, 10 ** 5000)), "entry an int of 5001 digits"),
    "long inversion entry": (lambda: InversionSequence((10 ** 4000,)), "entry 1000"),
    "long vertex count": (lambda: FriendshipGraph("x" * 100_000, []), "vertex count 'xxx"),
    "long vertex": (lambda: FriendshipGraph(3, [(1, 10 ** 4000)]), "vertex 1000"),
    "long non-int vertex": (lambda: FriendshipGraph(3, [(1, "x" * 100_000)]), "vertex 'xxx"),
    "long neighbor": (lambda: graph_generator("cycle", 3).neighbors(10 ** 4000), "vertex 1000"),
    "long car": (lambda: LotState((10 ** 4000, None)), "car 1000"),
    "long component": (lambda: Component(Permutation((1,)), 10 ** 4000, 10 ** 4000), "positions 1000"),
    "long direction": (lambda: CyclicOutcome("x" * 100_000, 1, 4), "direction 'xxx"),
    "permutation value past the digit limit": (
        lambda: Permutation((10 ** 5000,)),
        "(an int of 5001 digits,) is not a permutation of [1, 1]",
    ),
}


@pytest.mark.parametrize("build, start", LONG_VALUES.values(), ids=list(LONG_VALUES))
def test_library_refusal_repeats_a_value_to_a_bound(build, start):
    """A refusal names a long value by its start and its length, and an int
    past the 4,300-digit limit by its digits, where repr raises CPython's own
    ValueError."""
    with pytest.raises(ValueError) as info:
        build()
    message = str(info.value)
    assert message.startswith(start)
    assert "Exceeds the limit" not in message and len(message) < 1000
