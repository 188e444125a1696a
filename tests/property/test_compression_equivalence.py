"""Twin-rich graphs through the one join: what compression on vs off became.

The twin-class integration (``DSQLConfig.use_compression``) was a pure
mechanism change — class-level join masks in place of neighbor sets, with
identical candidates, order and budget charges — and no measured query
shape was faster with it, so it is deleted. ``DSQLConfig.use_compression``
is now a class constant ``False`` that only perfbench harness 1.0 reads.
These ids now pin the one remaining join end to end: a plain session
reproduces the frozen DSQL goldens on every registry dataset in both
storage states, answers on the twin-rich stand-in as a session on a
rebuilt graph does under every objective, dispatches no ``cbitset`` frame,
and is state-free across mutation batches (repaired cache ≡ rebuilt
graph) and across storage states on random twin-rich instances.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import dataset_names, make_dataset
from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.isomorphism.qsearch import QSearchEngine
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, in_storage_state, optimized_engine
from tests.indexes.test_delta_repair import assert_cache_equivalent
from tests.property.test_mutation_equivalence import (
    assert_results_identical,
    mutation_script,
    rebuilt_twin,
)
from tests.property.test_objective_equivalence import GOLDENS, result_digest


def assert_stats_parity(r_on, r_off):
    """Beyond the result view: identical candidate charges either way."""
    assert r_on.stats.nodes_expanded == r_off.stats.nodes_expanded
    assert r_on.stats.embeddings_found == r_off.stats.embeddings_found


@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("storage", STORAGE_STATES)
def test_compression_identical_on_registry_dataset(dataset, storage):
    # The plain session is the goldens' pipeline, query for query.
    graph = in_storage_state(make_dataset(dataset, scale=0.001, seed=7), storage)
    queries = query_set(graph, 3, 3, seed=11)
    session = DSQL(graph, config=DSQLConfig(k=4, node_budget=200_000))
    for i, query in enumerate(queries):
        result = session.query(query)
        assert result.stats.kernel_cbitset == 0
        assert result_digest(result) == GOLDENS[f"{dataset}|{storage}|plans=on|q{i}"]


@pytest.mark.parametrize("objective", ["vertex", "edge", "weighted-vertex"])
def test_compression_identical_across_objectives(objective):
    # On the twin-rich stand-in, a session sharing a warm cache with another
    # objective's answers as one on a rebuilt graph does.
    graph = make_dataset("imdb", scale=0.002, seed=3)
    queries = query_set(graph, 4, 3, seed=5)
    DSQL(graph, config=DSQLConfig(k=5, node_budget=200_000)).query_many(queries)
    config = DSQLConfig(k=5, objective=objective, node_budget=200_000)
    warm = DSQL(graph, config=config)
    fresh = DSQL(rebuilt_twin(graph), config=config)
    for query in queries:
        r_warm, r_fresh = warm.query(query), fresh.query(query)
        assert_results_identical(r_warm, r_fresh)
        assert_stats_parity(r_warm, r_fresh)


# ----------------------------------------------------------------------
# Pinned twin-rich instance, built for the deleted class join.
# ----------------------------------------------------------------------
def casting_instance():
    """An affiliation graph with heavy twin redundancy and a 4-cycle query.

    Groups of actors attached to the same pair of movies are false twins
    (three per pair), and the cycle-closing depth has two matched
    neighbors: its father and one more, so it probes one neighbor set.
    """
    rng = random.Random(7)
    labels = []
    edges = []
    movies = [len(labels) + i for i in range(40)]
    labels.extend("M" for _ in movies)
    for _ in range(120):
        a, b = rng.sample(movies, 2)
        for _ in range(3):
            v = len(labels)
            labels.append("A")
            edges.append((v, a))
            edges.append((v, b))
    graph = LabeledGraph(labels, edges)
    query = QueryGraph(["M", "A", "M", "A"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    return graph, query


def test_cbitset_kernel_fires_and_stays_identical():
    """The instance built for the class join: no engine dispatches
    ``cbitset`` (a HARNESS_ONLY kind, always 0), and the plan asked for with
    harness 1.0's ignored keyword is the plain one."""
    graph, query = casting_instance()
    cache = graph.index_cache()
    plan = cache.plan_cache.get_or_compile(query, cache, use_compression=True)
    assert plan is cache.plan_cache.get_or_compile(query, cache)

    for engine_cls in (QSearchEngine, optimized_engine):
        plain = list(engine_cls(graph, query).embeddings())
        planned_engine = engine_cls(graph, query, plan=plan)
        assert list(planned_engine.embeddings()) == plain
        assert planned_engine.kernel_dispatch["cbitset"] == 0

    config = DSQLConfig(k=4, node_budget=500_000)
    r_live = DSQL(graph, config=config).query(query)
    r_rebuilt = DSQL(rebuilt_twin(graph), config=config).query(query)
    assert_results_identical(r_live, r_rebuilt)
    assert_stats_parity(r_live, r_rebuilt)
    assert r_live.stats.kernel_cbitset == 0


def test_low_redundancy_plan_keeps_vertex_bitset():
    """On a graph without twins, ``bitset`` counts the frames that join two
    neighbor sets besides the father's: a K4's last frame, never a
    triangle's closing one; the answers are valid either way."""
    rng = random.Random(99)
    n = 120
    labels = ["X"] * n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
    graph = LabeledGraph(labels, edges)
    rows = {frozenset(graph.neighbor_set(v)) for v in graph.vertices()}
    assert len(rows) / n > 0.9
    config = DSQLConfig(k=4, node_budget=200_000, validate_results=True)
    triangle = QueryGraph(["X"] * 3, [(0, 1), (1, 2), (2, 0)])
    k4 = QueryGraph(["X"] * 4, list(combinations(range(4), 2)))
    r_tri = DSQL(graph, config=config).query(triangle)
    r_k4 = DSQL(graph, config=config).query(k4)
    assert r_tri.stats.kernel_bitset == 0 < r_tri.stats.kernel_scalar
    assert r_k4.stats.kernel_bitset > 0
    assert r_tri.stats.kernel_cbitset == r_k4.stats.kernel_cbitset == 0
    assert len(r_tri.embeddings) == len(r_k4.embeddings) == 4


# ----------------------------------------------------------------------
# Mutation: repaired cache ≡ rebuilt-from-scratch graph, on twins.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", ["imdb", "yeast"])
def test_compression_mutate_equals_rebuild(dataset):
    graph = make_dataset(dataset, scale=0.002, seed=7)
    queries = list(query_set(graph, 3, 3, seed=11))
    config = DSQLConfig(k=4, node_budget=200_000)
    session = DSQL(graph, config=config)
    # Warm everything pre-mutation: pools, plans, localized lists.
    session.query_many(queries)

    for round_seed in (29, 31):
        ops = mutation_script(graph, random.Random(round_seed), count=25)
        graph.mutate(ops)
        reference = DSQL(rebuilt_twin(graph), config=config)
        for got, want in zip(session.query_many(queries), reference.query_many(queries)):
            assert_results_identical(got, want)

    # A batch that applies nothing: answers must stay bit-identical.
    assert graph.mutate([("add_edge", u, v) for u, v in list(graph.edges())[:5]]).applied == 0
    reference = DSQL(rebuilt_twin(graph), config=config)
    for got, want in zip(session.query_many(queries), reference.query_many(queries)):
        assert_results_identical(got, want)


def toggle_random_edges(graph, rng, count):
    n = graph.num_vertices
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)


def test_compression_mutation_on_twin_rich_instance():
    """Writes that break up interchangeable actors: the live session
    answers as a session on the rebuilt graph does."""
    graph, query = casting_instance()
    config = DSQLConfig(k=4, node_budget=500_000)
    session = DSQL(graph, config=config)
    session.query(query)
    version = graph.index_cache().version

    toggle_random_edges(graph, random.Random(17), 12)
    assert graph.index_cache().version != version

    r_live = session.query(query)
    r_rebuilt = DSQL(rebuilt_twin(graph), config=config).query(query)
    assert_results_identical(r_live, r_rebuilt)
    assert_stats_parity(r_live, r_rebuilt)


def test_split_repair_partition_matches_fresh_build_semantics():
    """After deltas, the repaired cache agrees with a fresh build on
    everything observable, and the neighbor-set join the level engine
    intersects is the edge relation on sampled pairs."""
    graph, query = casting_instance()
    cache = graph.index_cache()
    DSQL(graph, config=DSQLConfig(k=4)).query(query)  # warm pools and lists
    rng = random.Random(23)
    toggle_random_edges(graph, rng, 10)

    assert graph.index_cache() is cache  # repaired in place, not rebuilt
    assert_cache_equivalent(cache, GraphIndexCache(graph))
    n = graph.num_vertices
    for _ in range(300):
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y:
            edge = graph.has_edge(x, y)
            assert (y in graph.neighbor_set(x)) == edge == (x in graph.neighbor_set(y))


# ----------------------------------------------------------------------
# Random instances
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    num_labels = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    twin_factor = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    # Bolt on twin copies of random vertices so compressible structure is
    # actually represented in the search space.
    base_n = n
    for _ in range(twin_factor):
        src = rng.randrange(base_n)
        nbrs = {y for x, y in edges if x == src} | {x for x, y in edges if y == src}
        v = len(labels)
        labels.append(labels[src])
        edges.extend((v, w) for w in sorted(nbrs))
    graph = LabeledGraph(labels, sorted({tuple(sorted(e)) for e in edges if e[0] != e[1]}))
    if graph.num_edges == 0:
        query = QueryGraph([labels[0]])
    else:
        from repro.queries.generator import random_query

        z = min(draw(st.integers(min_value=1, max_value=3)), graph.num_edges)
        query = None
        while z >= 1:
            try:
                query = random_query(graph, z, rng=rng)
                break
            except DatasetError:
                z -= 1
        if query is None:
            query = QueryGraph([labels[0]])
    k = draw(st.integers(min_value=1, max_value=5))
    return graph, query, k


@settings(max_examples=50, deadline=None)
@given(instances())
def test_compression_identical_on_random_instances(instance):
    # Twin-rich random instances: the built and the grown storage route
    # answer alike, charges included.
    graph, query, k = instance
    config = DSQLConfig(k=k)
    r_built = DSQL(in_storage_state(graph, "csr"), config=config).query(query)
    r_grown = DSQL(in_storage_state(graph, "set"), config=config).query(query)
    assert_results_identical(r_built, r_grown)
    assert_stats_parity(r_built, r_grown)
