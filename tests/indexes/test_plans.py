"""Compiled query plans and the per-graph PlanCache."""

from __future__ import annotations

import pickle

import pytest

import repro.indexes.plans as plans_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import GraphIndexCache
from repro.indexes.plans import PlanCache, compile_plan, plan_key
from repro.isomorphism.qsearch import connected_search_order
from repro.kernels import KERNEL_KINDS, SCAN
from repro.observability.metrics import MetricsRegistry
from repro.queries.generator import query_set
from repro.queries.ordering import selectivity_order, selectivity_scores


@pytest.fixture(scope="module")
def graph():
    return make_dataset("dblp", scale=0.001, seed=7)


@pytest.fixture(scope="module")
def queries(graph):
    return list(query_set(graph, 3, 4, seed=11))


def test_compile_plan_matches_seed_preprocessing(graph, queries):
    """Plan pools/ranking/order must equal the Section 4 + 5.1 definitions."""
    cache = graph.index_cache()
    for query in queries:
        plan = compile_plan(query, cache)
        for u in range(query.size):
            assert plan.pools[u] == cache.candidate_pool(
                query.label(u),
                min_degree=query.degree(u),
                signature_mask=cache.mask_for(query.neighborhood_signature(u)),
            )
        candidates = CandidateIndex(graph, query, cache=cache, plan=plan)
        scores = selectivity_scores(query, candidates)
        assert list(plan.qlist) == sorted(range(query.size), key=lambda u: (scores[u], u))
        assert selectivity_order(query, candidates) == list(plan.qlist)
        assert list(plan.order) == connected_search_order(query, list(plan.qlist))
        position = {u: i for i, u in enumerate(plan.order)}
        for depth, u in enumerate(plan.order):
            assert sorted(plan.backward[depth]) == sorted(
                w for w in query.neighbors(u) if position[w] < position[u]
            )
            assert plan.kernels[depth] in KERNEL_KINDS
        # The root depth has no matched neighbor: always a pool scan.
        assert plan.kernels[0] == SCAN


def test_plan_cache_hits_and_misses(graph, queries):
    cache = GraphIndexCache(graph)
    pc = cache.plan_cache
    p1 = pc.get_or_compile(queries[0], cache)
    p2 = pc.get_or_compile(queries[0], cache)
    assert p1 is p2
    assert pc.info() == {"hits": 1, "misses": 1, "size": 1}
    pc.get_or_compile(queries[1], cache)
    assert pc.info()["misses"] == 2


def test_plan_key_distinguishes_cache_epochs(graph, queries):
    c1, c2 = GraphIndexCache(graph), GraphIndexCache(graph)
    assert c1.epoch != c2.epoch
    assert plan_key(c1, queries[0]) != plan_key(c2, queries[0])
    # The compression toggle is part of the key too — the only one left.
    assert plan_key(c1, queries[0]) != plan_key(c1, queries[0], use_compression=True)
    assert plan_key(c1, queries[0]) == (c1.epoch, queries[0].canonical_key(), False)


def test_plan_cache_lru_eviction(graph, queries):
    cache = graph.index_cache()
    pc = PlanCache(size=2)
    for query in queries[:3]:
        pc.get_or_compile(query, cache)
    assert pc.info()["size"] == 2
    # The oldest entry was evicted: asking for it again recompiles.
    pc.get_or_compile(queries[0], cache)
    assert pc.info()["misses"] == 4


def test_plan_cache_metrics_mirroring(graph, queries):
    cache = GraphIndexCache(graph)
    registry = MetricsRegistry()
    cache.attach_metrics(registry)
    pc = cache.plan_cache
    pc.get_or_compile(queries[0], cache)
    pc.get_or_compile(queries[0], cache)
    snap = registry.snapshot()
    assert snap["plan.cache.misses"] == 1
    assert snap["plan.cache.hits"] == 1


def test_plan_cache_pickle_roundtrip(graph, queries):
    cache = graph.index_cache()
    pc = PlanCache()
    plan = pc.get_or_compile(queries[0], cache)
    mask = plan.cand_mask(0)
    clone = pickle.loads(pickle.dumps(pc))
    replayed = clone.get_or_compile(queries[0], cache)
    assert replayed.key == plan.key
    assert clone.info()["hits"] == pc.info()["hits"] + 1
    # Lazy cand-mask memo is rebuilt, not shipped.
    assert replayed.cand_mask(0) == mask


class TestPlanCacheAcrossAWrite:
    def test_plan_compiled_across_a_write_is_not_stored(self, monkeypatch):
        """The cache's invariant does not lean on its callers' locking: a write
        that lands between a compile and its store has already run
        ``evict_stale``, so the pre-write plan must not go in behind it."""
        graph = LabeledGraph(list("abab"), [(0, 1)])
        cache = graph.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])

        def compile_then_write(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)
            graph.add_edge(2, 3)
            return plan

        monkeypatch.setattr(plans_mod, "compile_plan", compile_then_write)
        size = cache.plan_cache.info()["size"]
        stale = cache.plan_cache.get_or_compile(query, cache)
        monkeypatch.undo()
        assert stale.pools == ((0,), (1,))  # its caller gets it ...
        assert cache.plan_cache.info()["size"] == size  # ... the cache does not
        plan = cache.plan_cache.get_or_compile(query, cache)
        assert plan.pools == ((0, 2), (1, 3)) == compile_plan(query, GraphIndexCache(graph)).pools
        assert cache.plan_cache.get_or_compile(query, cache) is plan


def test_plan_cache_clear(graph, queries):
    cache = graph.index_cache()
    pc = PlanCache()
    pc.get_or_compile(queries[0], cache)
    pc.clear()
    assert pc.info()["size"] == 0


def test_session_shares_plan_cache_through_index_cache(graph, queries):
    config = DSQLConfig(k=2, node_budget=50_000)
    s1 = DSQL(graph, config=config)
    s2 = DSQL(graph, config=config)
    assert s1.index_cache.plan_cache is s2.index_cache.plan_cache
    s1.index_cache.plan_cache.clear()  # earlier tests share the module graph
    before = s1.index_cache.plan_cache.info()["misses"]
    s1.query(queries[0])
    s2.query(queries[0])
    info = s1.index_cache.plan_cache.info()
    assert info["misses"] == before + 1  # second session hit the shared plan
    assert info["hits"] >= 1


# ----------------------------------------------------------------------
# Candidate set views live on the plan, never per query
# ----------------------------------------------------------------------
def test_candidate_index_construction_builds_no_sets(graph, queries):
    cache = GraphIndexCache(graph)
    ci = CandidateIndex(graph, queries[0], cache=cache)
    assert ci.plan._pool_sets == [None] * queries[0].size
    view = ci.candidate_set(0)
    assert view == set(ci.candidates(0))
    assert ci.is_candidate(0, ci.candidates(0)[0])
    # Memoized on the cached plan: a second index over the same query
    # shares the very same set object.
    assert CandidateIndex(graph, queries[0], cache=cache).candidate_set(0) is view


def test_plan_driven_query_materializes_no_set_views(graph, queries):
    """A repeated query builds no set: the views ride on the cached plan."""
    config = DSQLConfig(k=4, node_budget=200_000)
    plan_cache = graph.index_cache().plan_cache
    for query in queries:
        DSQL(graph, config=config).query(query)
    plans = [plan_cache.get_or_compile(q, graph.index_cache()) for q in queries]
    views = [list(plan._pool_sets) for plan in plans]
    for query in queries:
        DSQL(graph, config=config).query(query)
    for plan, before in zip(plans, views):
        assert all(a is b for a, b in zip(plan._pool_sets, before))


def test_restricted_accepts_sorted_and_unordered_input():
    graph = LabeledGraph(["A", "A", "A", "B"], [(0, 3), (1, 3), (2, 3)])
    query = QueryGraph(["A", "B"], [(0, 1)])
    ci = CandidateIndex(graph, query)
    assert ci.plan._pool_sets == [None, None]
    # N(v3) ∩ candS(0) goes through the plan's pool set of node 0 alone.
    assert ci.localized(0, 3) == [0, 1, 2]
    assert ci.plan._pool_sets == [{0, 1, 2}, None]


# ----------------------------------------------------------------------
# Disk-backed warm start: dump_specs / warm_from_specs
# ----------------------------------------------------------------------
class TestPlanSpecs:
    def test_dump_and_warm_round_trip(self, graph, queries):
        cache = graph.index_cache()
        pc = PlanCache()
        originals = [pc.get_or_compile(q, cache) for q in queries]
        specs = pc.dump_specs()
        assert len(specs) == len(queries)

        fresh_cache = GraphIndexCache(graph)
        fresh = fresh_cache.plan_cache
        assert fresh.warm_from_specs(specs, fresh_cache) == len(queries)
        assert fresh.info()["size"] == len(queries)
        # Warmed plans answer the original queries as cache *hits* with the
        # same structure the cold compile produced.
        for query, original in zip(queries, originals):
            hits = fresh.hits
            plan = fresh.get_or_compile(query, fresh_cache)
            assert fresh.hits == hits + 1
            assert list(plan.order) == list(original.order)
            assert [list(p) for p in plan.pools] == [list(p) for p in original.pools]
            assert list(plan.kernels) == list(original.kernels)

    def test_specs_are_json_safe(self, graph, queries):
        import json

        cache = graph.index_cache()
        pc = PlanCache()
        for q in queries:
            pc.get_or_compile(q, cache, use_compression=True)
        specs = json.loads(json.dumps(pc.dump_specs()))
        fresh_cache = GraphIndexCache(graph)
        warmed = fresh_cache.plan_cache.warm_from_specs(specs, fresh_cache)
        assert warmed == len(queries)
        # The compression toggle survived the round trip: warmed plans carry
        # class pools.
        plan = fresh_cache.plan_cache.get_or_compile(
            queries[0], fresh_cache, use_compression=True
        )
        assert fresh_cache.plan_cache.info()["hits"] == 1
        assert plan.class_pools is not None

    def test_specs_track_toggles_separately(self, graph, queries):
        cache = graph.index_cache()
        pc = PlanCache()
        pc.get_or_compile(queries[0], cache)
        pc.get_or_compile(queries[0], cache, use_compression=True)
        specs = pc.dump_specs()
        assert len(specs) == 2
        assert {s["use_compression"] for s in specs} == {False, True}

    def test_specs_are_the_memo_keys_spelled_as_json(self, graph, queries):
        import json

        cache = graph.index_cache()
        pc = PlanCache()
        pc.get_or_compile(queries[0], cache)
        pc.get_or_compile(queries[1], cache, use_compression=True)
        pc.get_or_compile(queries[0], cache)  # a hit refreshes recency: coldest first
        want = [
            {
                "labels": list(query.labels),
                "edges": [list(e) for e in query.edge_tuples()],
                "use_compression": compressed,
            }
            for query, compressed in ((queries[1], True), (queries[0], False))
        ]
        assert json.dumps(pc.dump_specs(), sort_keys=True) == json.dumps(want, sort_keys=True)
        assert PlanCache.__slots__ == ("_memo", "_size", "_lock", "hits", "misses", "_metrics")
        # A file from before the per-filter toggles were deleted carries two
        # more fields per spec; they are ignored and the same plans warm.
        old = [dict(spec, use_degree_filter=True, use_signature_filter=False) for spec in want]
        fresh_cache = GraphIndexCache(graph)
        assert fresh_cache.plan_cache.warm_from_specs(old, fresh_cache) == 2
        assert fresh_cache.plan_cache.dump_specs() == want

    def test_specs_pruned_with_lru_eviction(self, graph, queries):
        cache = graph.index_cache()
        pc = PlanCache(size=2)
        for q in queries[:3]:
            pc.get_or_compile(q, cache)
        assert len(pc.dump_specs()) == 2

    def test_specs_pruned_on_clear_and_evict_stale(self, graph, queries):
        cache = graph.index_cache()
        pc = PlanCache()
        plan = pc.get_or_compile(queries[0], cache)
        assert pc.evict_stale(plan.referenced_lids) == 1
        assert pc.dump_specs() == []
        pc.get_or_compile(queries[0], cache)
        pc.clear()
        assert pc.dump_specs() == []

    def test_bad_specs_are_skipped_not_fatal(self, graph, queries):
        cache = GraphIndexCache(graph)
        pc = cache.plan_cache
        bad = [
            {"labels": ["no-such-label"], "edges": []},
            {"edges": [[0, 1]]},  # missing labels entirely
            "not-a-dict",
        ]
        good_pc = PlanCache()
        good_pc.get_or_compile(queries[0], cache)
        warmed = pc.warm_from_specs(bad + good_pc.dump_specs(), cache)
        assert warmed >= 1
        assert pc.info()["size"] >= 1
