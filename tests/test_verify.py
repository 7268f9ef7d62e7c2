import types

import pytest

from parkfun import (
    Direction,
    FriendshipGraph,
    ParkingPreference,
    Permutation,
    Success,
    cyclic,
    friendship,
    graph_generator,
    verify,
)
from parkfun.core import NotAnInteger
from parkfun.limits import SearchCapExceeded
from parkfun.verify import (
    N3_REFERENCE_TABLE,
    bijection_suite,
    cycle_suite,
    n3_reference_rows,
    props_suite,
    run_suite,
    table1_suite,
)


def assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_table1_suite():
    assert_all_pass(table1_suite())


def test_reference_rows_regenerate():
    assert tuple(n3_reference_rows()) == N3_REFERENCE_TABLE


def test_props_suite_small():
    assert_all_pass(props_suite(range(1, 4)))


def test_props_suite_n4_finds_a_friendship_outcome_beyond_the_paths():
    checks = props_suite([4])
    assert_all_pass(checks)
    assert "friendship-beyond-hamiltonian-outcomes C_4" in {c.name for c in checks}


def test_props_holds_the_path_total_to_the_brute_count(monkeypatch):
    """A total one too large on every nonempty graph still reads as nonempty;
    only a comparison of the counts catches it."""
    real = verify.total_fpf_count
    monkeypatch.setattr(verify, "total_fpf_count", lambda g: real(g) + (real(g) > 0))
    failed = [c.name for c in props_suite([3]) if not c.passed]
    assert failed == ["nonempty-iff-hamiltonian n=3"]


def props_with_boxes(monkeypatch, tamper):
    """props_suite at n=3 with every fibre box passed through `tamper`."""
    real = verify.enumerate_fibre

    def tampered(pi, graph, **kwargs):
        return tamper(pi.word, list(real(pi, graph, **kwargs)))

    monkeypatch.setattr(verify, "enumerate_fibre", tampered)
    return {c.name: c for c in props_suite([3])}


def test_props_catches_a_short_box(monkeypatch):
    def drop(word, box):
        return box[:-1] if word == (1, 2, 3) else box

    checks = props_with_boxes(monkeypatch, drop)
    assert not checks["fibre-box-partition n=3"].passed
    assert all(c.passed for name, c in checks.items() if name != "fibre-box-partition n=3")


@pytest.mark.parametrize("keep", [False, True], ids=["moved", "duplicated"])
def test_props_catches_a_preference_in_the_wrong_box(monkeypatch, keep):
    """A preference of 123's box is also (or only) yielded in the next box,
    which on every graph with path 123 belongs to another path."""
    stray = []

    def misfile(word, box):
        if word == (1, 2, 3):
            stray.append(box[-1])
            return box if keep else box[:-1]
        return box + [stray.pop()] if stray else box

    checks = props_with_boxes(monkeypatch, misfile)
    partition = checks["fibre-box-partition n=3"]
    assert not partition.passed
    assert "first: fibre of" in partition.detail


def test_reference_rows_simulate_each_cyclic_preference_once(monkeypatch):
    calls = []
    real = friendship._run

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(friendship, "_run", counting)
    rows = n3_reference_rows()
    # One sweep of [3]^3, then one simulation per row.
    assert len(calls) == 3 ** 3 + len(rows) == 37


def test_cycle_suite_small():
    assert_all_pass(cycle_suite([3, 4]))


def test_cycle_suite_reports_a_wrong_closed_form(monkeypatch):
    real = verify.cycle_fibre_size

    def off_by_one(c):
        shift = c.direction is Direction.INCREASING and c.start == 2
        return real(c) + shift

    monkeypatch.setattr(verify, "cycle_fibre_size", off_by_one)
    failed = [c for c in cycle_suite([4]) if not c.passed]
    assert [c.name for c in failed] == ["cycle-fibre-closed-forms n=4"]
    assert failed[0].detail == "(2, 3, 4, 1): closed 7, product 6, brute 6"


def test_bijection_suite_small():
    assert_all_pass(bijection_suite(range(1, 5)))


def test_bijection_suite_reports_a_wrong_decomposition(monkeypatch):
    real = verify._brute_minimal_blocks

    def merged(word):
        return [(1, 3)] if word == (2, 1, 3) else real(word)

    monkeypatch.setattr(verify, "_brute_minimal_blocks", merged)
    failed = [c for c in bijection_suite([3]) if not c.passed]
    assert [c.name for c in failed] == ["component-decomposition n=3"]
    assert failed[0].detail == "(2, 1, 3)"


def test_bijection_suite_reports_a_wrong_inversion_decoding(monkeypatch):
    """Two inversion sequences, given as plain tuples, decode to each other's
    permutation. The pass over every sequence and the displacement fibres
    each report (0, 0, 0) first; permutation -> sequence -> permutation,
    which passes an InversionSequence, still round-trips."""
    real = cyclic.perm_from_inv_seq
    swap = {(0, 0, 0): (0, 1, 2), (0, 1, 2): (0, 0, 0)}

    def swapped(a):
        return real(swap.get(a, a) if isinstance(a, tuple) else a)

    tampered = types.SimpleNamespace(**{**vars(cyclic), "perm_from_inv_seq": swapped})
    monkeypatch.setattr(verify, "cyc", tampered)
    failed = {c.name: c.detail for c in bijection_suite([3]) if not c.passed}
    assert failed == {
        "inversion-sequence-bijection n=3": "(0, 0, 0)",
        "displacement-fibres n=3": "displacement (0, 0, 0): 3 preferences vs 1 components",
    }


def _drop_last_of_runs_for_2(real):
    def tampered(j, pi, graph):
        run = real(j, pi, graph)
        return types.SimpleNamespace(elements=run.elements[:-1]) if j == 2 else run

    return tampered


def _first_cyclic_starts_at_2(real):
    """`_psi`, with (1, 1, 1) parked as if the car in spot 1 were car 2."""
    def tampered(p):
        res, c, comps = real(p)
        if p.entries == (1, 1, 1):
            res = Success(Permutation((2, 3, 1)), res.displacement)
        return res, c, comps

    return tampered


# One tamper per check, or per kind of discrepancy a check reports, that no
# other test makes fail: the suite, its n, the name verify calls ("cyc." for
# the cyclic module as verify sees it), a function of the real callable that
# returns its replacement, and every check that then fails with its first
# detail. Three props checks fail together:
# classical outcomes that are all Hamiltonian paths of C_4 leave no witness
# beyond them, and differ from the outcomes on K_4, which has every path and
# whose friendship parking is classical parking.
TAMPERS = [
    pytest.param(
        props_suite, 3, "is_parking_function",
        lambda real: lambda p: p.entries != (1, 1, 1) and real(p),
        {"friendship-implies-classical n=3": "3 discrepancies, first: (1, 1, 1) on [(1, 2), (2, 3)]"},
        id="friendship-implies-classical",
    ),
    pytest.param(
        props_suite, 4, "_all_friends", lambda real: lambda n: graph_generator("cycle", n)._neighbors,
        {
            "classical-hamiltonian-outcome-transfers n=4": (
                "60 discrepancies, first: (2, 2, 1, 1) on [(1, 2), (1, 3), (1, 4), (2, 3)]"
            ),
            "complete-graph-is-classical n=4": (
                "125 preferences on K_4, (n+1)^(n-1) = 125, outcomes differ from classical"
            ),
            "friendship-beyond-hamiltonian-outcomes C_4": "no witness found",
        },
        id="classical-outcomes-of-the-cycle",
    ),
    # Classical outcomes of two cars that are not friends: (1, 1) no longer
    # parks, which only K_2 tells apart.
    pytest.param(
        props_suite, 2, "_all_friends", lambda real: lambda n: FriendshipGraph(n, ())._neighbors,
        {
            "complete-graph-is-classical n=2": (
                "3 preferences on K_2, (n+1)^(n-1) = 3, outcomes differ from classical"
            )
        },
        id="complete-graph-is-classical",
    ),
    pytest.param(
        cycle_suite, 4, "hamiltonian_paths", lambda real: lambda g: list(real(g))[:-1],
        {"cycle-hamiltonian-paths n=4": "7 paths vs 8 rotations, 7 shared"},
        id="cycle-hamiltonian-paths",
    ),
    pytest.param(
        cycle_suite, 4, "cycle_total_count", lambda real: lambda n: real(n) + 1,
        {"cycle-count-closed-form n=4": "formula 66 vs brute 65"},
        id="cycle-count-closed-form",
    ),
    pytest.param(
        cycle_suite, 4, "blocking_sequence", _drop_last_of_runs_for_2,
        {"cycle-blocking-run-shapes n=4": "run for 2 in (1, 2, 3, 4): (1,) != (1, 2)"},
        id="cycle-blocking-run-shapes",
    ),
    pytest.param(
        cycle_suite, 3, "blocking_sequence", _drop_last_of_runs_for_2,
        {"three-cycle-replacement": "run for 2 in 132 is (), fibre size 2"},
        id="three-cycle-replacement",
    ),
    pytest.param(
        bijection_suite, 3, "cyc.inv_seq",
        lambda real: lambda pi: real(Permutation((2, 1, 3)) if pi.word == (1, 2, 3) else pi),
        {"inversion-sequence-bijection n=3": "(1, 2, 3)"},
        id="inversion-sequence-bijection",
    ),
    pytest.param(
        bijection_suite, 3, "cyc.cyclic_total_count", lambda real: lambda n: real(n) + 1,
        {"cyclic-count n=3": "brute 10, formula 11, components 10"},
        id="cyclic-count",
    ),
    pytest.param(
        bijection_suite, 3, "cyc.psi_inverse",
        lambda real: lambda c: ParkingPreference((1, 1, 2)) if real(c).entries == (1, 1, 1) else real(c),
        {"component-bijection-round-trip n=3": "round trip at (1, 1, 1)"},
        id="component-bijection-round-trip",
    ),
    # A start moved from 1 to 2 also moves a preference between two
    # rotation fibres.
    pytest.param(
        bijection_suite, 3, "cyc._psi", _first_cyclic_starts_at_2,
        {
            "component-bijection-round-trip n=3": "component minimum at (1, 1, 1)",
            "cyclic-fibre-sizes n=3": "start 1",
        },
        id="component-minimum",
    ),
    pytest.param(
        bijection_suite, 3, "cyc.inversion_number",
        lambda real: lambda value, perm: real(value, perm) + (value == 3),
        {"component-bijection-round-trip n=3": "displacement/inversion at (1, 1, 1)"},
        id="displacement-inversion",
    ),
    # The identity's components with the first in place of the second: the
    # cuts no longer match either.
    pytest.param(
        bijection_suite, 3, "cyc.components",
        lambda real: lambda pi: real(pi)[:1] * 2 + real(pi)[2:] if pi.word == (1, 2, 3) else real(pi),
        {
            "component-decomposition n=3": "(1, 2, 3)",
            "component-bijection-round-trip n=3": "image is not all components exactly once",
        },
        id="psi-image",
    ),
    pytest.param(
        bijection_suite, 3, "cyc.cyclic_fibre_size", lambda real: lambda i, n: real(i, n) + (i == 2),
        {"cyclic-fibre-sizes n=3": "start 2"},
        id="cyclic-fibre-sizes",
    ),
    pytest.param(
        lambda sizes: table1_suite(), None, "cyc.enumerate_cyclic_pf",
        lambda real: lambda n, force: list(real(n, force=force))[:-1],
        {
            "three-car-reference-table": (
                "first mismatch: ((3, 1, 2), (2, 2, 1), (0, 1, 0), (2, 1, 3), 3) "
                "!= ((2, 3, 1), (3, 1, 2), (0, 0, 0), (1, 2, 3), 2)"
            )
        },
        id="three-car-reference-table",
    ),
]


@pytest.mark.parametrize("suite, n, name, tamper, failed", TAMPERS)
def test_each_check_can_fail(monkeypatch, suite, n, name, tamper, failed):
    module, _, attr = name.rpartition(".")
    if module:
        tampered = types.SimpleNamespace(**{**vars(cyclic), attr: tamper(getattr(cyclic, attr))})
        monkeypatch.setattr(verify, "cyc", tampered)
    else:
        monkeypatch.setattr(verify, attr, tamper(getattr(verify, attr)))
    assert {c.name: c.detail for c in suite([n]) if not c.passed} == failed


def test_check_results_name_themselves():
    check = verify.CheckResult("cyclic-count n=3", False, "brute 10, formula 11, components 10")
    assert repr(check) == (
        "CheckResult('cyclic-count n=3', False, 'brute 10, formula 11, components 10')"
    )


def test_run_suite_dispatch():
    checks = run_suite("all", [3])
    names = {c.name for c in checks}
    assert "three-car-reference-table" in names
    assert any(n.startswith("cycle-count") for n in names)
    assert any(n.startswith("cyclic-count") for n in names)
    assert_all_pass(checks)


def test_run_suite_unknown():
    with pytest.raises(ValueError) as info:
        run_suite("x" * 100_000)
    assert str(info.value).startswith("unknown suite 'xxx") and len(str(info.value)) < 200


@pytest.mark.parametrize(
    "suite, n, error, message",
    [
        ("bijection", True, NotAnInteger, "n True is not an integer"),
        ("props", 4.0, NotAnInteger, "n 4.0 is not an integer"),
        ("cycle", 4.0, NotAnInteger, "n 4.0 is not an integer"),
        ("bijection", 4.0, NotAnInteger, "n 4.0 is not an integer"),
        ("all", 2.5, NotAnInteger, "n 2.5 is not an integer"),
        ("cycle", 0, ValueError, "need n >= 1"),
    ],
)
def test_run_suite_holds_each_n_to_the_size_rule(suite, n, error, message):
    with pytest.raises(error) as info:
        run_suite(suite, [n])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "suite, n_values, error, message",
    [
        ("all", [3, 2.5], NotAnInteger, "n 2.5 is not an integer"),
        ("table1", [2.5, -7], NotAnInteger, "n 2.5 is not an integer"),
        ("props", iter([4, 0]), ValueError, "need n >= 1"),
        # A range is held by its two ends: one past sys.maxsize has no len().
        ("cycle", range(-5, 10 ** 20), ValueError, "need n >= 1"),
        ("bijection", range(3, -1, -1), ValueError, "need n >= 1"),
    ],
    ids=["all", "table1", "iterator", "long-range", "descending-range"],
)
def test_run_suite_checks_every_n_before_any_suite_runs(monkeypatch, suite, n_values, error, message):
    def boom(*args, **kwargs):
        raise AssertionError("a suite ran before every n was checked")

    for name in ("_graph_corpus", "n3_reference_rows", "ensure_sweep_within_cap"):
        monkeypatch.setattr(verify, name, boom)
    with pytest.raises(error) as info:
        run_suite(suite, n_values)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "suite", [cycle_suite, props_suite, bijection_suite], ids=["cycle", "props", "bijection"]
)
def test_suites_respect_cap(monkeypatch, suite):
    monkeypatch.setenv("PARKFUN_BRUTE_CAP", "10")
    with pytest.raises(SearchCapExceeded):
        suite([4])
    assert_all_pass(suite([4], force=True))


def test_refused_suites_do_no_work_first(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("work done before the cap was read")

    monkeypatch.setattr(verify, "hamiltonian_paths", boom)
    monkeypatch.setattr(verify, "_graph_corpus", boom)
    with pytest.raises(SearchCapExceeded, match=r"of more than 10\^2658 preferences"):
        cycle_suite([900])
    with pytest.raises(SearchCapExceeded, match=r"of more than 10\^1668 preferences"):
        props_suite([600])
    monkeypatch.setenv("PARKFUN_BRUTE_CAP", "10")
    with pytest.raises(SearchCapExceeded, match=f"of {64 * 4 ** 4} preferences"):
        props_suite([4])


@pytest.mark.parametrize("n", range(1, 7))
def test_corpus_size_known_up_front(n):
    assert len(verify._graph_corpus(n)[0]) == verify._corpus_size(n)
