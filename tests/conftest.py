"""Shared fixtures and reference implementations for the test suite.

The reference implementations here are deliberately naive (itertools-based
brute force); they are the ground truth the optimized library code is tested
against on small instances.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import accumulate, combinations, permutations
from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.datasets.examples import dbpedia_flavor, figure1, figure2, imdb_flavor
from repro.graph.csr import CSRBackend
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.qsearch import QSearchEngine

optimized_engine = partial(QSearchEngine, conflict_backjumping=True, bad_vertex_skipping=True)
"""``QSearchEngine`` with both Section 5.3/5.4 switches on."""


# ----------------------------------------------------------------------
# Reference (brute-force) implementations
# ----------------------------------------------------------------------
def brute_force_embeddings(graph: LabeledGraph, query: QueryGraph) -> List[Tuple[int, ...]]:
    """Every embedding by trying all injective label-respecting assignments."""
    buckets = [list(graph.vertices_with_label(query.label(u))) for u in range(query.size)]
    results: List[Tuple[int, ...]] = []

    def recurse(u: int, chosen: List[int], used: Set[int]) -> None:
        if u == query.size:
            results.append(tuple(chosen))
            return
        for v in buckets[u]:
            if v in used:
                continue
            ok = True
            for u2 in query.neighbors(u):
                if u2 < u and not graph.has_edge(chosen[u2], v):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                used.add(v)
                recurse(u + 1, chosen, used)
                used.discard(v)
                chosen.pop()

    recurse(0, [], set())
    # Verify remaining edges (u2 > u handled implicitly by full recursion,
    # but double-check for safety).
    verified = []
    for mapping in results:
        if all(graph.has_edge(mapping[a], mapping[b]) for a, b in query.edges()):
            verified.append(mapping)
    return verified


def brute_force_distinct_vertex_sets(
    graph: LabeledGraph, query: QueryGraph
) -> Set[FrozenSet[int]]:
    """All embeddings collapsed to distinct vertex sets."""
    return {frozenset(m) for m in brute_force_embeddings(graph, query)}


def brute_force_optimal_coverage(
    vertex_sets: Sequence[FrozenSet[int]], k: int
) -> int:
    """Exact max coverage by trying every <=k-subset (tiny instances only)."""
    best = 0
    sets = list(vertex_sets)
    for size in range(0, min(k, len(sets)) + 1):
        for combo in combinations(sets, size):
            cover = len(set().union(*combo)) if combo else 0
            best = max(best, cover)
    return best


def random_labeled_graph(
    num_vertices: int,
    num_labels: int,
    edge_prob: float,
    seed: int,
) -> LabeledGraph:
    """Small Erdős–Rényi labeled graph for randomized tests."""
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(num_vertices)]
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.random() < edge_prob
    ]
    return LabeledGraph(labels, edges)


STORAGE_STATES = ("csr", "set")
"""The two routes to one graph inside the one storage class (``CSRBackend``).

``csr`` — built: every edge handed to the constructor, which normalizes and
sorts them in bulk. ``set`` — grown: the same graph from an edgeless start,
edge by edge through ``add_edge``'s in-place row and set updates. The two
end in the same storage state (``tests/graph/test_csr.py`` pins it); the ids
are those of the retired two-backend axis, so the ``set`` golden rows and
test ids now pin the grown route."""


def build_graph(labels, edges=(), name: str = "", storage: str = "csr") -> LabeledGraph:
    """``LabeledGraph(labels, edges)``, built (``csr``) or grown (``set``)."""
    if storage == "csr":
        return LabeledGraph(labels, edges, name=name)
    graph = LabeledGraph(labels, name=name)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def in_storage_state(graph: LabeledGraph, storage: str) -> LabeledGraph:
    """A copy of ``graph`` made by the given route (see ``STORAGE_STATES``)."""
    return build_graph(list(graph.labels), graph.edges(), name=graph.name, storage=storage)


def resident_arrays(backend: CSRBackend) -> List[str]:
    """The storage slots holding a numpy array between calls (none, by design)."""
    return [slot for slot in CSRBackend.__slots__ if isinstance(getattr(backend, slot), np.ndarray)]


def assert_arrays_match_rebuild(backend: CSRBackend):
    """``backend.to_arrays()`` is the CSR of a from-scratch rebuild of its
    graph: sorted rows, ``indptr`` the cumulative degrees, same dtypes.
    Returns the arrays."""
    arrays = backend.to_arrays()
    want = CSRBackend(list(backend.labels), backend.edges()).to_arrays()
    assert list(arrays) == ["indptr", "indices", "label_ids"] == list(want)
    for field, array in arrays.items():
        assert array.dtype == want[field].dtype, field
        assert array.tolist() == want[field].tolist(), field
    bounds = arrays["indptr"].tolist()
    assert bounds == [0, *accumulate(backend.degree_sequence())]
    flat = arrays["indices"].tolist()
    for v in range(backend.num_vertices):
        assert flat[bounds[v] : bounds[v + 1]] == sorted(backend.neighbor_set(v))
    return arrays


def connected_query_from(graph: LabeledGraph, num_edges: int, seed: int) -> QueryGraph:
    """A random connected query sampled from ``graph`` (test-local copy)."""
    from repro.queries.generator import random_query

    return random_query(graph, num_edges, rng=random.Random(seed))


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig1():
    """(graph, query) of the paper's Figure 1."""
    return figure1()


@pytest.fixture(scope="session")
def fig2():
    """(graph, query) of the paper's Figure 2 / Example 2."""
    return figure2()


@pytest.fixture(scope="session")
def imdb_small():
    """Small IMDB-flavour affiliation graph and its Section 7.2 query."""
    return imdb_flavor(num_people=300, num_series=60, seed=3)


@pytest.fixture(scope="session")
def dbpedia_small():
    """Small DBpedia-flavour occupation graph and its B.1 query."""
    return dbpedia_flavor(num_people=400, seed=5)


@pytest.fixture()
def triangle_query():
    """A 3-node triangle query with distinct labels."""
    return QueryGraph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def path_query():
    """A 3-node path query a-b-c."""
    return QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
