"""Compiled query plans and the per-graph PlanCache."""

from __future__ import annotations

import pickle
import sys
import threading
import time
from collections import Counter

import pytest

import repro.indexes.graph_cache as graph_cache_mod
import repro.indexes.plans as plans_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.phase1 import run_phase1
from repro.core.state import SearchStats
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import DEFAULT_CANDIDATE_MEMO_SIZE, GraphIndexCache
from repro.indexes.plans import PlanCache, QueryPlan, compile_plan, plan_key
from repro.isomorphism.qsearch import connected_search_order
from repro.indexes.plans import expand_pool
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
        # The plan keeps no per-depth join choice: the root depth has no
        # matched neighbor and expands to its whole pool.
        assert not plan.backward[0] and not hasattr(plan, "kernels")
        assert expand_pool(plan, 0, [None] * query.size, cache) == plan.pools[plan.order[0]]


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
    # No session setting is part of the key: a plan depends on the graph
    # and the query alone.
    assert plan_key(c1, queries[0]) == (c1.epoch, queries[0].canonical_key())


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
    # The cand mask is no memo: built from the pool on every call.
    assert "_cand_masks" not in QueryPlan.__slots__
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

    def test_a_plan_compiled_inside_a_write_is_not_kept(self, monkeypatch):
        """A compile that starts after a write moved the version, but before
        it repaired the pools, reads the pre-write pools under the new
        version, and its store would pass the version check after the write
        evicted. The write holds the cache's lock from its bump, so the
        compile waits for the write, and the plan kept is the post-write one."""
        graph = LabeledGraph(list("abab"), [(0, 1)])
        cache = graph.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])
        compiled, written, readers = threading.Event(), threading.Event(), []

        def compile_then_wait(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)
            compiled.set()
            assert written.wait(30)  # the store lands after the write returned
            return plan

        def counter_with_a_reader(*args):
            # The write counts its dirty labels after writing the rows, before its repair.
            if not readers:
                reader = threading.Thread(
                    target=cache.plan_cache.get_or_compile, args=(query, cache)
                )
                reader.start()
                readers.append(reader)
                compiled.wait(0.5)  # the compile would finish here, were it not held back
            return Counter(*args)

        monkeypatch.setattr(plans_mod, "compile_plan", compile_then_wait)
        monkeypatch.setattr(graph_cache_mod, "Counter", counter_with_a_reader)
        graph.add_edge(2, 3)
        written.set()
        (reader,) = readers
        reader.join(30)
        assert not reader.is_alive()
        monkeypatch.undo()
        want = compile_plan(query, GraphIndexCache(graph)).pools
        assert want == ((0, 2), (1, 3))
        assert cache.plan_cache.get_or_compile(query, cache).pools == want


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
# Candidate set views live on the plan's pool entries, never per query
# ----------------------------------------------------------------------
def test_candidate_index_construction_builds_no_sets(graph, queries):
    cache = GraphIndexCache(graph)
    ci = CandidateIndex(graph, queries[0], cache=cache)
    assert [entry.view for entry in ci.plan.entries] == [None] * queries[0].size
    view = ci.candidate_set(0)
    assert view == set(ci.candidates(0)) and ci.plan.entries[0].view is view
    assert ci.is_candidate(0, ci.candidates(0)[0])
    # Kept on the pool's entry: a second index over the same query shares
    # the very same set object.
    assert CandidateIndex(graph, queries[0], cache=cache).candidate_set(0) is view


def test_plan_driven_query_materializes_no_set_views(graph, queries):
    """A repeated query builds no set: the views ride on the cached plan."""
    config = DSQLConfig(k=4, node_budget=200_000)
    plan_cache = graph.index_cache().plan_cache
    for query in queries:
        DSQL(graph, config=config).query(query)
    plans = [plan_cache.get_or_compile(q, graph.index_cache()) for q in queries]
    views = [[entry.view for entry in plan.entries] for plan in plans]
    for query in queries:
        DSQL(graph, config=config).query(query)
    for plan, before in zip(plans, views):
        assert all(entry.view is view for entry, view in zip(plan.entries, before))


def test_restricted_accepts_sorted_and_unordered_input():
    graph = LabeledGraph(["A", "A", "A", "B"], [(0, 3), (1, 3), (2, 3)])
    query = QueryGraph(["A", "B"], [(0, 1)])
    ci = CandidateIndex(graph, query)
    assert [entry.view for entry in ci.plan.entries] == [None, None]
    # N(v3) ∩ candS(0) goes through the pool set of node 0 alone.
    assert ci.localized(0, 3) == (0, 1, 2)
    assert [entry.view for entry in ci.plan.entries] == [{0, 1, 2}, None]


# ----------------------------------------------------------------------
# A pool's set view lives on its memo entry: one build per entry
# ----------------------------------------------------------------------
def counted_pool_builds(monkeypatch) -> list:
    """Patch the two modules that may build a pool's frozenset; the returned
    list gets one entry per frozenset built from a tuple (a pool) there."""
    import repro.indexes.graph_cache as cache_mod

    builds = []

    def counting(iterable=()):
        if type(iterable) is tuple:
            builds.append(len(iterable))
        return frozenset(iterable)

    for module in (cache_mod, plans_mod):
        monkeypatch.setattr(module, "frozenset", counting, raising=False)
    return builds


def stream_queries(graph, count):
    """``count`` structurally distinct 4-edge queries: every one a fresh plan."""
    seen = {}
    for query in query_set(graph, 4, 4 * count, seed=29):
        seen.setdefault(query.canonical_key(), query)
    assert len(seen) >= count
    return list(seen.values())[:count]


def test_plans_sharing_a_pool_key_share_one_view():
    graph = LabeledGraph(["A", "A", "B", "B"], [(0, 2), (1, 3), (0, 3)])
    cache = graph.index_cache()
    edge = compile_plan(QueryGraph(["A", "B"], [(0, 1)]), cache)
    path = compile_plan(QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)]), cache)
    assert edge.profiles[0] == path.profiles[0] == path.profiles[2]
    assert edge.entries[0] is path.entries[0] is path.entries[2]
    view = edge.pool_set(0)
    assert view == {0, 1} and path.pool_set(0) is view and path.pool_set(2) is view
    assert path.pool_set(1) is not edge.pool_set(1)  # B of degree 2 vs 1
    assert sum(entry.view is not None for entry in cache._pool_memo.values()) == 3


def test_a_recompiled_plan_gets_back_the_same_view(graph, queries):
    cache = GraphIndexCache(graph)
    plans = PlanCache(size=1)
    first = plans.get_or_compile(queries[0], cache)
    views = [first.pool_set(u) for u in range(queries[0].size)]
    plans.get_or_compile(queries[1], cache)  # evicts the first plan
    again = plans.get_or_compile(queries[0], cache)
    assert again is not first and plans.info()["misses"] == 3
    assert all(again.pool_set(u) is view for u, view in enumerate(views))


def test_a_second_pass_over_a_stream_builds_no_frozenset(monkeypatch):
    """The ``engine_stream`` shape: 3x the plan cache's size in distinct
    queries, so every op compiles a fresh plan. The first pass builds each
    pool's view once; the second pass builds none."""
    graph = make_dataset("dblp", scale=0.01, seed=7)
    cache = graph.index_cache()
    stream = stream_queries(graph, 3 * plans_mod.DEFAULT_PLAN_CACHE_SIZE)
    session = DSQL(graph, DSQLConfig(k=4, node_budget=2_000))
    builds = counted_pool_builds(monkeypatch)
    for query in stream:
        session.query(query)
    assert cache._pool_memo and len(cache._pool_memo) < DEFAULT_CANDIDATE_MEMO_SIZE
    views = sum(entry.view is not None for entry in cache._pool_memo.values())
    assert len(builds) == views > 0  # one build per memo entry asked
    assert cache.plan_cache.info()["hits"] == 0
    del builds[:]
    for query in stream:
        session.query(query)
    assert builds == [] and cache.plan_cache.info()["hits"] == 0


def test_kept_views_never_outnumber_the_memo(monkeypatch):
    graph = make_dataset("dblp", scale=0.01, seed=7)
    cache = graph._cache = GraphIndexCache(graph, candidate_memo_size=16)
    session = DSQL(graph, DSQLConfig(k=4, node_budget=2_000))
    builds = counted_pool_builds(monkeypatch)
    for query in stream_queries(graph, 60):
        session.query(query)
        assert len(cache._pool_memo) <= 16
    views = sum(entry.view is not None for entry in cache._pool_memo.values())
    assert len(builds) > views  # evicted entries' views went with them


def test_a_pickled_cache_and_plan_carry_no_views_and_answer_identically(graph, queries):
    config = DSQLConfig(k=4, node_budget=200_000)
    cache = graph.index_cache()
    for query in queries:
        DSQL(graph, config=config).query(query)
    assert any(entry.view is not None for entry in cache._pool_memo.values())
    assert pickle.loads(pickle.dumps(cache))._pool_memo == {}
    clone_graph = pickle.loads(pickle.dumps(graph))
    assert clone_graph.index_cache()._pool_memo == {}
    for query in queries:
        want = DSQL(graph, config=config).query(query).to_dict()
        assert DSQL(clone_graph, config=config).query(query).to_dict() == want
        plan = cache.plan_cache.get_or_compile(query, cache)
        for u in range(query.size):
            plan.pool_set(u)
        # An entry pickles as its members: no view, mass or lists go along.
        clone = pickle.loads(pickle.dumps(plan))
        for entry, mine in zip(clone.entries, plan.entries):
            assert entry.members == mine.members and mine.view is not None
            assert (entry.view, entry.mass, entry.lists) == (None, None, None)
        for u in range(query.size):
            assert clone.pool_set(u) == plan.pool_set(u)
            # The clone's entries are copies, not the memo's: its views are its own.
            assert clone.pool_set(u) is not plan.pool_set(u) or not plan.pools[u]

        def phase1_through(p):
            stats = SearchStats()
            view = CandidateIndex(graph, query, cache=cache, plan=p)
            out = run_phase1(graph, query, config, view, stats, plan=p)
            return out.state.embeddings, out.level, out.exhausted, stats

        assert phase1_through(clone) == phase1_through(plan)


def test_threads_filling_one_plans_lists_answer_as_one_thread():
    """Two plans per query over the same memoized pools — the cached one and
    a second compile — and four threads querying through them at once (two
    per plan), the interpreter switching threads every microsecond, so they
    race to fill each pool's one set of localized lists: every answer is the
    serial one, both plans read one dict per pool, and every list the cache
    keeps is its row filter (racing stores are equal tuples)."""
    source = make_dataset("yeast", scale=0.1, seed=0)
    queries = list(query_set(source, 4, 4, seed=5))
    config = DSQLConfig(k=10, query_cache_size=0)
    want = [DSQL(source, config).query(query).to_dict() for query in queries]
    graph = LabeledGraph(list(source.labels), list(source.edges()))
    cache = graph.index_cache()
    cached = [cache.plan_cache.get_or_compile(query, cache) for query in queries]
    second = {query.canonical_key(): compile_plan(query, cache) for query in queries}

    class SecondPlan(DSQL):
        def _plan(self, query):
            return second[query.canonical_key()]

    deadline = time.monotonic() + 1.0
    answers, errors = [], []

    def run(session):
        try:
            while time.monotonic() < deadline:
                answers.append([session.query(query).to_dict() for query in queries])
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    sessions = [DSQL(graph, config), SecondPlan(graph, config)] * 2
    threads = [threading.Thread(target=run, args=(session,)) for session in sessions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    assert len(answers) >= 8 and all(answer == want for answer in answers)
    for query, plan in zip(queries, cached):
        assert cache.plan_cache.get_or_compile(query, cache) is plan
        other = second[query.canonical_key()]
        assert other is not plan
        mine = CandidateIndex(graph, query, cache=cache, plan=plan)._localized
        theirs = CandidateIndex(graph, query, cache=cache, plan=other)._localized
        assert all(a is b for a, b in zip(mine, theirs)) and any(mine)
    for key, entry in cache._pool_memo.items():
        pool = set(entry.members)
        for fv, hit in entry.lists.items():
            assert hit == tuple(w for w in graph.neighbors(fv) if w in pool), (key, fv)


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
            assert plan.backward == original.backward

    def test_specs_are_json_safe(self, graph, queries):
        import json

        cache = graph.index_cache()
        pc = PlanCache()
        for q in queries:
            pc.get_or_compile(q, cache)
        specs = json.loads(json.dumps(pc.dump_specs()))
        fresh_cache = GraphIndexCache(graph)
        warmed = fresh_cache.plan_cache.warm_from_specs(specs, fresh_cache)
        assert warmed == len(queries)
        # A warmed plan answers a compressed session too: plans carry no toggle.
        fresh_cache.plan_cache.get_or_compile(queries[0], fresh_cache, use_compression=True)
        assert fresh_cache.plan_cache.info()["hits"] == 1

    def test_specs_track_toggles_separately(self, graph, queries):
        cache = graph.index_cache()
        pc = PlanCache()
        plain = pc.get_or_compile(queries[0], cache)
        # A compressed session asks for the same plan: one spec, no toggle.
        assert pc.get_or_compile(queries[0], cache, use_compression=True) is plain
        specs = pc.dump_specs()
        assert len(specs) == 1
        assert set(specs[0]) == {"labels", "edges"}

    def test_specs_are_the_memo_keys_spelled_as_json(self, graph, queries):
        import json

        cache = graph.index_cache()
        pc = PlanCache()
        pc.get_or_compile(queries[0], cache)
        pc.get_or_compile(queries[1], cache)
        pc.get_or_compile(queries[0], cache)  # a hit refreshes recency: coldest first
        want = [
            {"labels": list(query.labels), "edges": [list(e) for e in query.edge_tuples()]}
            for query in (queries[1], queries[0])
        ]
        assert json.dumps(pc.dump_specs(), sort_keys=True) == json.dumps(want, sort_keys=True)
        assert PlanCache.__slots__ == ("_memo", "_size", "_lock", "hits", "misses", "_metrics")
        # A file from before the per-filter toggles and the compression
        # toggle left the plan carries three more fields per spec; they are
        # ignored and the same plans warm.
        old = [
            dict(spec, use_degree_filter=True, use_signature_filter=False, use_compression=True)
            for spec in want
        ]
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
