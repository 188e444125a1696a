"""Property gate: mutate-then-query ≡ rebuild-from-scratch-then-query.

The correctness keystone of live mutation (docs/mutation.md): for any
mutation script, querying the *mutated* graph — through warm caches,
delta-repaired indexes, version-qualified memos, and surviving plans —
must produce bit-identical :class:`DSQResult`\\ s to querying a graph
*rebuilt from scratch* with the post-mutation topology. Runs across the
registry datasets, both storage states (frozen base / overlay-resident),
repeated mutation rounds, and across an explicit compaction.

The candidate-pool memo is repaired in place by every write, so a second
property drives random add_vertex / add_edge / remove_edge / compact scripts
with plans compiled between the steps and holds every memoized pool, the
pools of every plan compiled over them, and the answers under all three
objectives to a graph built from scratch — and, with the degree masses primed
before the first write, every cost profile and estimate of the battery,
float for float. ``compact`` is a free op of those
scripts: a checkpoint changes no version and strands no plan, memo entry or
weight profile, and the version counts exactly the applied deltas.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.cost.estimator import raw_cost_profile
from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.datasets.registry import dataset_names, make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.indexes.plans import compile_plan
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, in_storage_state
from tests.indexes.test_delta_repair import assert_cache_equivalent, banded_graph, kept_masses

SCALE = 0.002
OPS = 40


def assert_results_identical(r1, r2):
    assert r1.embeddings == r2.embeddings
    assert r1.coverage == r2.coverage
    assert r1.optimal == r2.optimal
    assert r1.optimal_reason == r2.optimal_reason
    assert r1.level == r2.level


def mutation_script(graph: LabeledGraph, rng: random.Random, count: int = OPS):
    """A mixed script of vertex adds, edge adds, and edge removes."""
    labels = sorted(set(graph.labels), key=str)
    edges = list(graph.edges())
    n = graph.num_vertices
    ops = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            ops.append(("add_vertex", rng.choice(labels)))
            n += 1
        elif r < 0.6:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                ops.append(("add_edge", u, v))
        else:
            if edges and rng.random() < 0.7:
                u, v = edges[rng.randrange(len(edges))]
            else:
                u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                ops.append(("remove_edge", u, v))
    return ops


def rebuilt_twin(graph: LabeledGraph) -> LabeledGraph:
    return LabeledGraph(list(graph.labels), list(graph.edges()))


@pytest.mark.parametrize("storage", STORAGE_STATES)
@pytest.mark.parametrize("dataset", dataset_names())
def test_mutate_equals_rebuild(dataset, storage):
    graph = in_storage_state(make_dataset(dataset, scale=SCALE, seed=7), storage)
    queries = list(query_set(graph, 3, 3, seed=11))
    config = DSQLConfig(k=4, node_budget=200_000)
    session = DSQL(graph, config=config)
    # Warm everything pre-mutation: pools, plans, signatures, result memo.
    session.query_many(queries)

    ops = mutation_script(graph, random.Random(29))
    summary = graph.mutate(ops, compaction_threshold=None)
    assert summary.applied > 0
    assert summary.version == graph.version

    reference = DSQL(rebuilt_twin(graph), config=config)
    for got, want in zip(session.query_many(queries), reference.query_many(queries)):
        assert_results_identical(got, want)

    # A checkpoint is not a version: the answers are the memo's own.
    graph.compact()
    assert graph.version == summary.version
    for got, want in zip(session.query_many(queries), reference.query_many(queries)):
        assert got.from_cache
        assert_results_identical(got, want)


def test_mutate_equals_rebuild_over_rounds():
    graph = make_dataset("yeast", scale=0.02, seed=3)
    queries = list(query_set(graph, 3, 4, seed=5))
    config = DSQLConfig(k=5, node_budget=200_000)
    session = DSQL(graph, config=config)
    session.query_many(queries)

    for round_seed in (1, 2, 3):
        ops = mutation_script(graph, random.Random(round_seed), count=25)
        graph.mutate(ops, compaction_threshold=None)
        reference = DSQL(rebuilt_twin(graph), config=config)
        for got, want in zip(session.query_many(queries), reference.query_many(queries)):
            assert_results_identical(got, want)


def test_incremental_single_ops_equal_rebuild():
    """Per-op mutation methods (not just batches) keep answers identical."""
    graph = make_dataset("yeast", scale=0.02, seed=9)
    queries = list(query_set(graph, 3, 3, seed=13))
    config = DSQLConfig(k=4)
    session = DSQL(graph, config=config)
    session.query_many(queries)
    rng = random.Random(41)
    for _ in range(15):
        n = graph.num_vertices
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
    reference = DSQL(rebuilt_twin(graph), config=config)
    for got, want in zip(session.query_many(queries), reference.query_many(queries)):
        assert_results_identical(got, want)


def test_memo_serves_stale_free_answers():
    """A memoized answer must never survive a topology change it depends on."""
    graph = make_dataset("yeast", scale=0.02, seed=17)
    queries = list(query_set(graph, 3, 2, seed=19))
    config = DSQLConfig(k=4)
    session = DSQL(graph, config=config)
    first = session.query_many(queries)
    # Same version: second pass is pure memo hits, bit-identical objects.
    again = session.query_many(queries)
    for a, b in zip(first, again):
        assert a.embeddings == b.embeddings
    graph.add_edge(0, graph.num_vertices - 1)
    post = session.query_many(queries)
    reference = DSQL(rebuilt_twin(graph), config=config)
    for got, want in zip(post, reference.query_many(queries)):
        assert_results_identical(got, want)


# ----------------------------------------------------------------------
# The repaired pool memo under random scripts
# ----------------------------------------------------------------------
BANDED_QUERIES = query_set(banded_graph(), 3, 6, seed=31)

vertex_ids = st.integers(0, 95)  # the banded graph has 90: some ids only exist after adds
script_steps = st.one_of(
    st.tuples(st.just("add_edge"), vertex_ids, vertex_ids),
    st.tuples(st.just("remove_edge"), vertex_ids, vertex_ids),
    st.tuples(st.just("add_vertex"), st.sampled_from("abcd")),
    st.tuples(st.just("compact")),
    # Several edge ops as one batch: one repair pass, sometimes a bulk one.
    st.lists(
        st.tuples(st.sampled_from(["add_edge", "remove_edge"]), vertex_ids, vertex_ids),
        min_size=2,
        max_size=6,
    ),
)


def valid_ops(graph: LabeledGraph, ops):
    n = graph.num_vertices
    return [op for op in ops if op[0] == "add_vertex" or (op[1] != op[2] and max(op[1:]) < n)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(script_steps, st.integers(0, len(BANDED_QUERIES) - 1)), max_size=25))
def test_repaired_pool_memo_equals_fresh_scans(script):
    graph = banded_graph()
    cache = graph.index_cache()
    configs = [DSQLConfig(k=3, objective=name) for name in OBJECTIVE_NAMES]
    sessions = [DSQL(graph, config=config) for config in configs]
    weighted = sessions[OBJECTIVE_NAMES.index("weighted-vertex")]
    profile = weighted._weight_profile  # a view of the graph: one for the session's life
    for label in "abc":
        cache.candidate_pool(label)  # no plan asks for the unfiltered pools new vertices join
    for query in BANDED_QUERIES:
        sessions[0].estimate(query)  # primes the degree masses the steps then repair
    epoch, seq = graph.version
    for step, query_index in script:
        query = BANDED_QUERIES[query_index]
        compile_plan(query, cache)  # warms the pools the step may move
        if step == ("compact",):
            for session in sessions:
                session.query_many([query])
            plans, size = cache.plan_cache, cache.plan_cache.info()["size"]
            graph.compact()
            # The checkpoint stranded nothing that was warm a line ago.
            assert cache.plan_cache is plans and plans.info()["size"] == size
            assert all(session.query_many([query])[0].from_cache for session in sessions)
            assert cache.ops_since(seq) == ()
        else:
            batch = [step] if isinstance(step, tuple) else step
            seq += graph.mutate(valid_ops(graph, batch), compaction_threshold=None).applied
        # Neither a checkpoint nor a write replaces the profile, and it reads
        # the weights of the graph as it is now.
        assert weighted._weight_profile is profile
        assert all(profile.weight(v) == 1 + graph.degree(v) for v in graph.vertices())
        # One epoch, and a delta_seq that counts the applied ops and nothing else.
        assert graph.version == (epoch, seq)
        twin = rebuilt_twin(graph)
        fresh = twin.index_cache()
        assert_cache_equivalent(cache, fresh)
        assert compile_plan(query, cache).pools == compile_plan(query, fresh).pools
        # Priced off the repaired masses (and, for a surviving plan, re-priced
        # after the write): float-exact with a graph that never saw a write.
        rebuilt = DSQL(twin, config=configs[0])
        for priced in BANDED_QUERIES:
            assert raw_cost_profile(compile_plan(priced, cache), cache) == raw_cost_profile(
                compile_plan(priced, fresh), fresh
            )
            assert sessions[0].estimate(priced) == rebuilt.estimate(priced)
        for session, config in zip(sessions, configs):
            assert_results_identical(session.query(query), DSQL(twin, config=config).query(query))
    assert kept_masses(cache)
