"""Compression on vs off: every engine must be result-*identical*.

The twin-class integration (``DSQLConfig.use_compression``) is a pure
mechanism change: the class-level join masks of the level engine's frames
may change *how* a join test is computed, but never which candidates are
iterated, in what order, or when budget charges fire. A plan does not
depend on the toggle, so the SQ engines see none of it. These tests pin
that contract — DSQL end to end across every registry dataset in both
storage states, all objectives, random hypothesis instances, and across
mutation batches (split-repaired partition ≡ rebuilt-from-scratch graph).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import dataset_names, make_dataset
from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.qsearch import QSearchEngine
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, in_storage_state, optimized_engine
from tests.property.test_mutation_equivalence import (
    assert_results_identical,
    mutation_script,
    rebuilt_twin,
)

COMP_ON = {"use_compression": True}


def assert_stats_parity(r_on, r_off):
    """Beyond the result view: identical candidate charges either way."""
    assert r_on.stats.nodes_expanded == r_off.stats.nodes_expanded
    assert r_on.stats.embeddings_found == r_off.stats.embeddings_found


@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("storage", STORAGE_STATES)
def test_compression_identical_on_registry_dataset(dataset, storage):
    graph = in_storage_state(make_dataset(dataset, scale=0.002, seed=7), storage)
    queries = query_set(graph, 3, 3, seed=11)
    config = DSQLConfig(k=4, node_budget=200_000)
    off = DSQL(graph, config=config)
    on = DSQL(graph, config=replace(config, **COMP_ON))
    for query in queries:
        r_on, r_off = on.query(query), off.query(query)
        assert_results_identical(r_on, r_off)
        assert_stats_parity(r_on, r_off)


@pytest.mark.parametrize("objective", ["vertex", "edge", "weighted-vertex"])
def test_compression_identical_across_objectives(objective):
    graph = make_dataset("imdb", scale=0.002, seed=3)
    queries = query_set(graph, 4, 3, seed=5)
    config = DSQLConfig(k=5, objective=objective, node_budget=200_000)
    off = DSQL(graph, config=config)
    on = DSQL(graph, config=replace(config, **COMP_ON))
    for query in queries:
        r_on, r_off = on.query(query), off.query(query)
        assert_results_identical(r_on, r_off)
        assert_stats_parity(r_on, r_off)


# ----------------------------------------------------------------------
# Pinned twin-rich instance: the compressed join must actually fire.
# ----------------------------------------------------------------------
def casting_instance():
    """An affiliation graph with heavy twin redundancy and a 4-cycle query.

    Groups of actors attached to the same pair of movies are false twins;
    the ``A`` pool compresses ~3x, and the cycle-closing depth has two
    matched neighbors, so a compressed session joins it on class masks.
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
    graph, query = casting_instance()
    cache = graph.index_cache()
    assert cache.compressed().compression_ratio() < 0.6

    plan = cache.plan_cache.get_or_compile(query, cache, use_compression=True)
    assert plan is cache.plan_cache.get_or_compile(query, cache)

    # SQ engines: one plan, so one stream; no depth joins on class masks.
    for engine_cls in (QSearchEngine, optimized_engine):
        plain = list(engine_cls(graph, query).embeddings())
        planned_engine = engine_cls(graph, query, plan=plan)
        planned = list(planned_engine.embeddings())
        assert planned == plain
        assert planned_engine.kernel_dispatch["cbitset"] == 0

    # DSQL end to end: identical results, compressed join frames counted.
    config = DSQLConfig(k=4, node_budget=500_000)
    r_off = DSQL(graph, config=config).query(query)
    r_on = DSQL(graph, config=replace(config, **COMP_ON)).query(query)
    assert_results_identical(r_on, r_off)
    assert_stats_parity(r_on, r_off)
    assert r_on.stats.kernel_cbitset > 0
    assert r_off.stats.kernel_cbitset == 0


def test_low_redundancy_plan_keeps_vertex_bitset():
    """Without twins the toggle changes nothing either: the compressed
    session joins on class masks exactly the frames the plain one joins on
    neighbor sets."""
    rng = random.Random(99)
    n = 120
    labels = ["X"] * n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
    graph = LabeledGraph(labels, edges)
    cache = graph.index_cache()
    assert cache.compressed().compression_ratio() > 0.9
    query = QueryGraph(["X", "X", "X"], [(0, 1), (1, 2), (2, 0)])
    # The toggle must still be safe end to end on a graph it cannot help.
    config = DSQLConfig(k=4, node_budget=200_000)
    r_off = DSQL(graph, config=config).query(query)
    r_on = DSQL(graph, config=replace(config, **COMP_ON)).query(query)
    assert_results_identical(r_on, r_off)
    assert_stats_parity(r_on, r_off)
    assert r_on.stats.kernel_cbitset == r_off.stats.kernel_bitset > 0
    assert r_on.stats.kernel_bitset == r_off.stats.kernel_cbitset == 0


# ----------------------------------------------------------------------
# Mutation: split-repaired partition ≡ rebuilt-from-scratch graph.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", ["imdb", "yeast"])
def test_compression_mutate_equals_rebuild(dataset):
    graph = make_dataset(dataset, scale=0.002, seed=7)
    queries = list(query_set(graph, 3, 3, seed=11))
    config = DSQLConfig(k=4, node_budget=200_000, **COMP_ON)
    session = DSQL(graph, config=config)
    # Warm everything pre-mutation: pools, plans, the twin partition.
    session.query_many(queries)
    assert graph.index_cache()._compressed is not None

    for round_seed in (29, 31):
        ops = mutation_script(graph, random.Random(round_seed), count=25)
        graph.mutate(ops, compaction_threshold=None)
        reference = DSQL(rebuilt_twin(graph), config=config)
        for got, want in zip(session.query_many(queries), reference.query_many(queries)):
            assert_results_identical(got, want)

    # Cross the compaction boundary: the partition survives (topology is
    # unchanged) and answers must stay bit-identical.
    graph.compact()
    reference = DSQL(rebuilt_twin(graph), config=config)
    for got, want in zip(session.query_many(queries), reference.query_many(queries)):
        assert_results_identical(got, want)


def test_compression_mutation_on_twin_rich_instance():
    """Mutations that hit multi-member classes: split repair vs rebuild,
    and repaired-on vs off on the same mutated graph."""
    graph, query = casting_instance()
    config = DSQLConfig(k=4, node_budget=500_000, **COMP_ON)
    session = DSQL(graph, config=config)
    session.query(query)
    comp = graph.index_cache()._compressed
    assert comp is not None

    rng = random.Random(17)
    n = graph.num_vertices
    for _ in range(12):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
    assert comp.split_repairs > 0

    r_live = session.query(query)
    r_rebuilt = DSQL(rebuilt_twin(graph), config=config).query(query)
    r_off = DSQL(
        rebuilt_twin(graph), config=replace(config, use_compression=False)
    ).query(query)
    assert_results_identical(r_live, r_rebuilt)
    assert_results_identical(r_live, r_off)
    assert_stats_parity(r_live, r_off)


def test_split_repair_partition_matches_fresh_build_semantics():
    """After deltas, the repaired partition must agree with a fresh build on
    everything observable: adjacency semantics and per-class uniformity.
    (The partitions themselves differ — repair only refines — so compare
    the *relation*, not the classes.)"""
    from repro.isomorphism.compression import CompressedGraph

    graph, _ = casting_instance()
    cache = graph.index_cache()
    comp = cache.compressed()
    rng = random.Random(23)
    n = graph.num_vertices
    for _ in range(10):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)

    assert comp is cache.compressed()  # repaired in place, not rebuilt
    # Partition invariants.
    seen = set()
    for cid, members in enumerate(comp.classes):
        for w in members:
            assert comp.class_of[w] == cid
            assert w not in seen
            seen.add(w)
        labels = {graph.label(w) for w in members}
        assert len(labels) <= 1
    assert seen == set(range(graph.num_vertices))
    # Twin symmetry against the live topology, via a vertex-level probe:
    # for sampled pairs, the class relation must equal the edge relation.
    fresh = CompressedGraph(graph)
    for _ in range(300):
        x, y = rng.randrange(n), rng.randrange(n)
        if x == y:
            continue
        cx, cy = comp.class_of[x], comp.class_of[y]
        want = graph.has_edge(x, y)
        got = comp.clique[cx] if cx == cy else cy in comp.neighbors(cx)
        assert got == want
        assert bool((comp.class_join_mask(cx) >> cy) & 1) == want
        fx, fy = fresh.class_of[x], fresh.class_of[y]
        got_fresh = fresh.clique[fx] if fx == fy else fy in fresh.neighbors(fx)
        assert got_fresh == want


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
    graph, query, k = instance
    config = DSQLConfig(k=k)
    r_off = DSQL(graph, config=config).query(query)
    r_on = DSQL(graph, config=replace(config, **COMP_ON)).query(query)
    assert_results_identical(r_on, r_off)
    assert_stats_parity(r_on, r_off)
