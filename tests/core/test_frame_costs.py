"""What a search frame costs, as counts (docs/performance.md § "What a frame costs").

A localized frame reads ``N(father's match) ∩ candS(u)`` from the view's
memo — per *distinct* ``(candS(u), father's match)`` one C-level filter of
the father's row, a memo hit afterwards; the memo lives on the pool's memo
entry in the index cache from its first ask, so later plans over the pool
share it — and everything
query-static from the plan's per-Qovp frame table, compiled once per (plan,
Qovp) and shared by every session. These tests hold that as
counted work on a registry graph; each fails at the commit before the
mechanism it counts existed.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import types

import pytest

import repro.core.dsql as dsql_module
import repro.indexes.plans as plans_module
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.phase1 import run_phase1
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import validate_embedding
from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import GraphIndexCache
from repro.queries.generator import query_set
from repro.queries.qflist import QFEntry, QFList, resort

from tests.conftest import pool_walks, profiled_calls

CONFIG = DSQLConfig(k=40, node_budget=20_000)


@pytest.fixture()
def workload():
    """``human`` (average degree 37) and eight 5-edge queries; phase 2 runs on one."""
    graph = make_dataset("human", scale=1.0, seed=0)
    return graph, list(query_set(graph, 5, 8, seed=3))


@pytest.fixture()
def views(monkeypatch):
    """Every ``CandidateIndex`` a ``DSQL.query`` builds while the test runs."""
    built = []

    class Recorded(CandidateIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(dsql_module, "CandidateIndex", Recorded)
    return built


def test_localization_touches_each_row_once_per_query(workload, views, monkeypatch):
    """(a) a miss reads its father's row once, filtered in C, and nothing
    else reads a row: every row read in the interpreter is a localized
    miss's, and each ``(pool, fv)`` pair misses at most once per query."""
    graph, queries = workload
    built = []  # per localized miss: (u, fv, the memo it fills)

    def counting_localized(self, u, fv):
        built.append((u, fv, self._localized[u]))
        return real_localized(self, u, fv)

    real_localized = CandidateIndex.localized
    monkeypatch.setattr(CandidateIndex, "localized", counting_localized)
    session = DSQL(graph, CONFIG)  # builds the graph's index cache (which reads every row)
    # Any row read in the interpreter from here on, and who read it. The
    # queries are trees, so no frame has two matched neighbors and no
    # adjacency bitmask is built: only a localized miss may read a row.
    rows_walked, missed = [], []

    def spied_neighbors(self, v):  # the class's method: queries read their rows too
        if self is graph:
            reader = sys._getframe(1).f_code.co_name
            (missed if reader == "localized" else rows_walked).append(v)
        return self._rows[v]

    monkeypatch.setattr(LabeledGraph, "neighbors", spied_neighbors)

    frames = repeats = misses = 0
    for query in queries:
        del built[:], missed[:]
        result = session.query(query)
        # The frames call `localized` on a memo miss only; each miss reads one row, its father's.
        assert missed == [fv for _, fv, _ in built]
        assert len({(id(memo), fv) for _, fv, memo in built}) == len(built)
        misses += len(built)
        frames += result.stats.kernel_merge
        repeats += result.stats.kernel_merge - len(built)
    assert misses and not rows_walked
    # The memo is exercised: most localized frames re-ask a pair already computed.
    assert repeats > frames / 2


def test_resort_runs_once_per_plan_and_qovp(workload, monkeypatch):
    """(b) a Qovp is compiled the first time any query of any session enters
    it: one ``resort_order`` per (plan, Qovp) over one ``resort_basis`` per
    plan, and no ``QFList`` or ``QFEntry`` is built on the way."""
    graph, queries = workload
    compiled, bases, built = [], [], []

    def counting_order(qlist, by_rank, leaf, qovp):
        compiled.append((id(by_rank), qovp))  # a basis names its plan
        return real_order(qlist, by_rank, leaf, qovp)

    def counting_basis(query, qlist):
        bases.append(query.canonical_key())
        return real_basis(query, qlist)

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        built.append(cls.__name__)
        return real_new(cls, *args, **kwargs)

    real_order, real_basis = plans_module.resort_order, plans_module.resort_basis
    real_init, real_new = QFList.__init__, QFEntry.__new__
    monkeypatch.setattr(plans_module, "resort_order", counting_order)
    monkeypatch.setattr(plans_module, "resort_basis", counting_basis)
    monkeypatch.setattr(QFList, "__init__", counting_init)
    monkeypatch.setattr(QFEntry, "__new__", counting_new)

    first = [DSQL(graph, CONFIG).query(query) for query in queries]
    assert any(r.stats.phase2_ran for r in first)  # phase 2 re-enters phase 1's Qovps
    assert len(compiled) == len(set(compiled)) > len(queries)
    cache = graph.index_cache()
    plans = [cache.plan_cache.get_or_compile(q, cache) for q in queries]
    assert len(compiled) == sum(len(plan._frames) for plan in plans)
    assert len(bases) == len(set(bases)) == len({plan.key for plan in plans})
    assert {by_rank for by_rank, _ in compiled} == {id(plan._resort_basis[0]) for plan in plans}
    assert not built
    resort(queries[0], plans[0].qlist)  # the spies see the baselines' route
    assert built == ["QFEntry"] * queries[0].size + ["QFList"]

    del compiled[:], bases[:], built[:]
    second = [DSQL(graph, CONFIG).query(query) for query in queries]  # warm plans
    assert not compiled and not bases and not built
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


def test_memoized_lists_stay_ascending_and_reruns_identical(workload, views):
    """(c) the §5.2 shuffle works on a copy: the memo keeps the definition's order."""
    graph, queries = workload
    session = DSQL(graph, CONFIG)
    shuffling_frames = 0
    for query in queries:
        first = session.query(query)
        view = views[-1]
        lists = [hit for memo in view._localized for hit in memo.values()]
        assert lists
        assert all(a < b for hit in lists for a, b in zip(hit, hit[1:]))
        shuffling_frames += sum(
            frame[3] is not None
            for entry in view.plan._frames.values()
            for frame in entry[1:]
        )
        again = session.query(query)
        assert again.to_dict() == first.to_dict()
        assert again.stats == first.stats
    assert shuffling_frames


def test_pickled_plan_drops_the_frame_table_and_answers_identically(workload):
    """(d) the table and the ``reSort`` basis it is compiled from are lazy
    views like ``pool_set``: never shipped, rebuilt on use, equal."""
    graph, queries = workload
    cache = graph.index_cache()

    def phase1_through(plan, query):
        stats = SearchStats()
        view = CandidateIndex(graph, query, cache=cache, plan=plan)
        out = run_phase1(graph, query, CONFIG, view, stats, plan=plan)
        return out.state.embeddings, out.level, out.exhausted, stats

    for query in queries:
        plan = cache.plan_cache.get_or_compile(query, cache)
        want = phase1_through(plan, query)
        assert plan._frames and plan._interned
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._frames == {} and clone._interned == {} and clone._resort_basis is None
        assert clone.frames(query, ()) == plan._frames[0]  # the empty Qovp's bitmask
        assert clone._resort_basis == plan._resort_basis
        assert phase1_through(clone, query) == want
        assert clone._frames == plan._frames


def test_frame_table_entry_is_one_small_tuple_of_interned_pointers(workload):
    """(e) bytes held per entry beyond the plan's interned tuples ≤ 64 + 8·q."""
    graph, queries = workload
    cache = graph.index_cache()
    for query in queries:
        DSQL(graph, CONFIG).query(query)
        plan = cache.plan_cache.get_or_compile(query, cache)
        q = query.size
        interned = plan._interned
        assert 0 < len(plan._frames) <= 2**q
        for key, entry in plan._frames.items():
            assert type(key) is int and 0 <= key < 2**q  # a bitmask, not a container
            assert len(entry) == q + 1
            assert sys.getsizeof(entry) <= 64 + 8 * q
            assert all(interned[part] is part for part in entry)
            assert all(interned[frame[4]] is frame[4] for frame in entry[1:])
        # Interning pays: subsets share frames, so the pool is far smaller
        # than one tuple per (Qovp, depth).
        frames = {frame for entry in plan._frames.values() for frame in entry[1:]}
        assert len(frames) < len(plan._frames) * q / 2


def test_localized_memo_dies_with_its_query():
    """The localized lists live on the pool's entry, not on the plan: a pool's
    first ask fills the pool's dict; a plan compiled after its predecessor's
    eviction reads the lists that one built; a write that dirties the pool's
    label but changes none of its lists keeps them all, and one that changes
    a list drops that list and no other, so the next query sees the new
    edge; a pickled plan's pools are not the memo's, so its view fills lists
    of its own; and an entry leaving the memo takes its lists along."""
    #  hub v0(a) - five b's (v1..v5); only v1 reaches a c (v6). Adding v2 - v7
    #  makes v2 a candidate and opens a second embedding through the hub's row.
    labels = ["a"] + ["b"] * 5 + ["c"] * 2
    edges = [(0, b) for b in range(1, 6)] + [(1, 6)]
    graph = LabeledGraph(labels, edges)
    cache = graph._cache = GraphIndexCache(graph, candidate_memo_size=3)
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    session = DSQL(graph, DSQLConfig(k=5))
    assert session.query(query).embeddings == ((0, 1, 6),)
    plan = cache.plan_cache.get_or_compile(query, cache)
    b_key = (cache.label_id("b"), *plan.profiles[1][1:])
    owned = cache._pool_memo[b_key].lists
    assert owned == {0: (1,), 6: (1,)}  # N(v0) and N(v6) ∩ candS(b), from the first ask
    cache.plan_cache.clear()
    assert session.query(query).embeddings == ((0, 1, 6),)
    replan = cache.plan_cache.get_or_compile(query, cache)
    assert replan is not plan and cache._pool_memo[b_key].lists is owned  # outlived its plan
    graph.add_edge(3, 4)  # dirties b; v3 and v4 stay out of candS(b)
    assert cache.plan_cache.info()["size"] == 0  # the plan goes ...
    assert cache._pool_memo[b_key].lists is owned and owned == {0: (1,), 6: (1,)}  # ... lists stay
    graph.add_edge(2, 7)  # v2 joins candS(b): its neighbors' lists change
    assert cache._pool_memo[b_key].lists is owned and owned == {6: (1,)}  # dropped, not repaired
    after = session.query(query)
    assert sorted(after.embeddings) == [(0, 1, 6), (0, 2, 7)]
    fresh = DSQL(LabeledGraph(labels, edges + [(3, 4), (2, 7)]), DSQLConfig(k=5)).query(query)
    assert after.to_dict() == fresh.to_dict()
    assert after.stats == fresh.stats
    assert owned[0] == (1, 2)  # a plan over the rebuilt entry refilled it
    assert session.query(query).to_dict() == after.to_dict()
    clone = pickle.loads(pickle.dumps(cache.plan_cache.get_or_compile(query, cache)))
    view = CandidateIndex(graph, query, cache=cache, plan=clone)
    entry = cache._pool_memo[b_key]
    assert view.localized(1, 0) == (1, 2) and view._localized[1] is not entry.lists
    assert pickle.loads(pickle.dumps(graph)).index_cache()._pool_memo == {}
    for label in "abc":  # three new profiles push the query's three out of the memo
        cache.candidate_pool(label, 0, 0)
    assert b_key not in cache._pool_memo and entry.lists is None


def test_a_warm_plan_keeps_its_localized_lists(workload):
    """(h) a plan compiled cold over pools earlier plans have asked —
    the stream path, where every plan is evicted before its query recurs —
    builds no localized list: ``localized`` is never entered, so no row is
    read, and the answers and counters are the first pass's."""
    graph, queries = workload
    session = DSQL(graph, dataclasses.replace(CONFIG, query_cache_size=0))
    cache = graph.index_cache()
    first = [session.query(query) for query in queries]
    plans = [cache.plan_cache.get_or_compile(query, cache) for query in queries]
    assert len({plan.key for plan in plans}) == len(queries)
    cache.plan_cache.clear()
    second = [session.query(query) for query in queries]
    cache.plan_cache.clear()
    third, calls = profiled_calls(lambda: [session.query(query) for query in queries])
    assert calls["plans.py", "compile_plan"] == len(queries)
    assert calls["candidates.py", "localized"] == 0
    assert sum(r.stats.kernel_merge for r in third) > 3_000
    for run in (second, third):
        assert [r.to_dict() for r in run] == [r.to_dict() for r in first]
        assert [r.stats for r in run] == [r.stats for r in first]


# ----------------------------------------------------------------------
# What a frame costs the interpreter: calls, counted with sys.setprofile
# ----------------------------------------------------------------------
def frames_entered(results):
    return sum(
        r.stats.kernel_scalar + r.stats.kernel_bitset + r.stats.kernel_cbitset for r in results
    )


@pytest.mark.parametrize("objective", ["vertex", "weighted-vertex"])
def test_a_frame_costs_its_candidates_not_itself(workload, objective):
    """(f) ≤ 7 Python-level calls into ``src/repro`` per frame, warm — the
    prologue, the join test and the charge are in the loop (12 before)."""
    graph, queries = workload
    config = dataclasses.replace(CONFIG, objective=objective, query_cache_size=0)
    session = DSQL(graph, config)
    warm = [session.query(query) for query in queries]
    results, calls = profiled_calls(lambda: [session.query(query) for query in queries])
    assert [r.to_dict() for r in results] == [r.to_dict() for r in warm]
    frames = frames_entered(results)
    assert frames > 3_000 and sum(r.stats.kernel_bitset for r in results) == 0  # tree queries
    assert sum(calls.values()) / frames <= 7.0
    # No frame runs code it had to build: no lambda, comprehension or
    # generator of the engine's module is ever entered ...
    built = {key: n for key, n in calls.items() if key[0] == "search.py" and key[1].startswith("<")}
    assert not built
    # ... because the three frame functions hold no nested code at all.
    for frame_fn in (
        LevelSearchEngine._multi_overlap, LevelSearchEngine._multi_anchor,
        LevelSearchEngine._single_frame,
    ):
        assert not [c for c in frame_fn.__code__.co_consts if isinstance(c, types.CodeType)]
    # An expansion is charged in place; the meter is entered at trip points only.
    assert calls["backtrack.py", "charge"] == 0
    assert calls["backtrack.py", "check"] <= 4 * len(queries)
    # Localization already joined the father: no edge is probed on a tree.
    assert calls["labeled_graph.py", "has_edge"] == 0
    # The storage's sets are fetched on a memo miss and, once per engine,
    # for the query's own CT(u, *) — never to test a candidate.
    engines = 2 * sum(query.size for query in queries)
    assert calls["labeled_graph.py", "neighbor_set"] <= calls["candidates.py", "localized"] + engines


def test_without_localization_the_neighbor_set_decides(workload, monkeypatch):
    """(g) Localization is not a setting: every frame with a father reads its
    localized list, so only a root frame walks its pool — once per scan
    frame — and no neighbor set is fetched to test a tree frame's candidates
    (no cap, so no shuffle; no budget)."""
    graph, queries = workload
    config = dataclasses.replace(
        CONFIG, single_embedding_mode=False, node_budget=None, query_cache_size=0
    )
    session = DSQL(graph, config)
    warm = [session.query(query) for query in queries]
    walks = pool_walks(monkeypatch)
    results, calls = profiled_calls(lambda: [session.query(query) for query in queries])
    assert [r.to_dict() for r in results] == [r.to_dict() for r in warm]
    assert calls["labeled_graph.py", "has_edge"] == 0
    for query, result in zip(queries, results):
        for embedding in result.embeddings:
            validate_embedding(graph, query, embedding)
    assert all(node == root for node, root in walks)
    assert len(walks) == sum(r.stats.kernel_scan for r in results) > 0
    merges = sum(r.stats.kernel_merge for r in results)
    assert merges == frames_entered(results) - len(walks) > len(walks)
    engines = 2 * sum(query.size for query in queries)
    assert calls["labeled_graph.py", "neighbor_set"] <= engines
