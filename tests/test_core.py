import copy
import pickle

import pytest
from hypothesis import given
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
    cyclic_fibre_size,
    cyclic_outcomes,
    cyclic_total_count,
    decreasing_word,
    graph_generator,
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
from parkfun.core import parse_graph_header
from parkfun.structure import fibre_characterisation


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


def test_graph_copies_rebuild_the_neighbour_sets():
    graph = graph_generator("cycle", 4)
    for twin in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert twin == graph and twin.neighbors(1) == frozenset({2, 4})


# Every public entry point that checks a label (a value, vertex, spot or
# start) against [1, n], with the word its message uses for the label.
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
