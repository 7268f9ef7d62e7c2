import itertools
import time

import pytest
from hypothesis import strategies as st

from parkfun import (
    Success,
    friendship_park,
    graph_generator,
    brute_fibre_counts,
    make_graph,
    make_preference,
)


@pytest.fixture
def c4():
    return graph_generator("cycle", 4)


@pytest.fixture
def c5():
    return graph_generator("cycle", 5)


@pytest.fixture(scope="session")
def cycle_brute():
    """Cached exhaustive fibre counts for cycle graphs: n -> (counts, seconds).

    The n=7 sweep is the expensive one; every test shares a single run.
    """
    cache: dict[int, tuple[dict, float]] = {}

    def get(n: int):
        if n not in cache:
            start = time.perf_counter()
            counts = brute_fibre_counts(graph_generator("cycle", n))
            cache[n] = (counts, time.perf_counter() - start)
        return cache[n]

    return get


def brute_fibres_by_outcome(graph):
    """Oracle: outcome word -> set of preference tuples, via the public API."""
    fibres: dict[tuple, set] = {}
    n = graph.n
    for entries in itertools.product(range(1, n + 1), repeat=n):
        res = friendship_park(make_preference(entries), graph)
        if isinstance(res, Success):
            fibres.setdefault(res.outcome.word, set()).add(entries)
    return fibres


@st.composite
def small_graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, k in zip(pairs, keep) if k])
