"""What a search frame costs, as counts (docs/performance.md § "What a frame costs").

A localized frame reads ``N(father's match) ∩ candS(u)`` from the per-query
view — one C-level set intersection per *distinct* ``(u, father's match)``,
a memo hit afterwards — and everything query-static from the plan's
per-Qovp frame table, compiled once per (plan, Qovp) and shared by every
session. These tests hold that as counted work on a registry graph; each
fails at the commit before the view and the table existed.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import types

import pytest

import repro.core.dsql as dsql_module
import repro.indexes.candidates as candidates_module
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
from repro.queries.generator import query_set

from tests.conftest import profiled_calls

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
    """(a) words touched ≤ Σ over distinct (u, fv) of min(|N(fv)|, |candS(u)|)."""
    graph, queries = workload
    touched = []  # per intersection: the side C walks

    def counting_intersect(first, *rest):
        touched.append(min(len(first), *map(len, rest)))
        return real_intersect(first, *rest)

    real_intersect = candidates_module.intersect_sets
    monkeypatch.setattr(candidates_module, "intersect_sets", counting_intersect)
    session = DSQL(graph, CONFIG)  # builds the graph's index cache (which reads every row)
    # Any row read in the interpreter from here on. The queries are trees, so
    # no frame has two matched neighbors and no adjacency bitmask is built.
    rows_walked = []
    real_neighbors = graph.neighbors  # bound before the spy goes in

    def spied_neighbors(self, v):  # the class's method: queries read their rows too
        if self is graph:
            rows_walked.append(v)
        return self._rows[v]

    monkeypatch.setattr(LabeledGraph, "neighbors", spied_neighbors)

    frames = repeats = 0
    for query in queries:
        del touched[:]
        result = session.query(query)
        view = views[-1]
        asked = {(u, fv) for u, memo in enumerate(view._localized) for fv in memo}
        bound = sum(
            min(len(real_neighbors(fv)), len(view.candidates(u))) for u, fv in asked
        )
        assert len(touched) == len(asked)
        assert 0 < sum(touched) <= bound
        frames += result.stats.kernel_merge
        repeats += result.stats.kernel_merge - len(asked)
    assert not rows_walked
    # The memo is exercised: most localized frames re-ask a pair already computed.
    assert repeats > frames / 2


def test_resort_runs_once_per_plan_and_qovp(workload, monkeypatch):
    """(b) a Qovp is compiled the first time any query of any session enters it."""
    graph, queries = workload
    compiled = []

    def counting_resort(query, qlist, qovp):
        compiled.append((query.canonical_key(), qovp))
        return real_resort(query, qlist, qovp)

    real_resort = plans_module.resort
    monkeypatch.setattr(plans_module, "resort", counting_resort)

    first = [DSQL(graph, CONFIG).query(query) for query in queries]
    assert any(r.stats.phase2_ran for r in first)  # phase 2 re-enters phase 1's Qovps
    assert len(compiled) == len(set(compiled)) > len(queries)
    cache = graph.index_cache()
    entries = sum(len(cache.plan_cache.get_or_compile(q, cache)._frames) for q in queries)
    assert len(compiled) == entries

    del compiled[:]
    second = [DSQL(graph, CONFIG).query(query) for query in queries]  # warm plans
    assert not compiled
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
    """(d) the table is a lazy view like ``pool_set``: never shipped, rebuilt on use."""
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
        assert clone._frames == {} and clone._interned == {}
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
    """A write between two queries of one session: the second sees the new edge."""
    #  hub v0(a) - five b's (v1..v5); only v1 reaches a c (v6). Adding v2 - v7
    #  makes v2 a candidate and opens a second embedding through the hub's row.
    labels = ["a"] + ["b"] * 5 + ["c"] * 2
    edges = [(0, b) for b in range(1, 6)] + [(1, 6)]
    graph = LabeledGraph(labels, edges)
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    session = DSQL(graph, DSQLConfig(k=5))
    assert session.query(query).embeddings == ((0, 1, 6),)
    graph.add_edge(2, 7)
    after = session.query(query)
    assert sorted(after.embeddings) == [(0, 1, 6), (0, 2, 7)]
    fresh = DSQL(LabeledGraph(labels, edges + [(2, 7)]), DSQLConfig(k=5)).query(query)
    assert after.to_dict() == fresh.to_dict()
    assert after.stats == fresh.stats


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


def test_without_localization_the_neighbor_set_decides(workload):
    """(g) ``localized_search=False``: one matched neighbor, one set fetched
    per frame, membership per candidate — and the same embeddings (no cap,
    so no shuffle; no budget, since the unlocalized search expands 20x)."""
    graph, queries = workload
    answers = {}
    for localized in (True, False):
        config = dataclasses.replace(
            CONFIG, localized_search=localized, single_embedding_mode=False,
            node_budget=None, query_cache_size=0,
        )
        session = DSQL(graph, config)
        results, calls = profiled_calls(lambda: [session.query(query) for query in queries])
        answers[localized] = [(r.embeddings, r.coverage, r.level) for r in results]
        assert calls["labeled_graph.py", "has_edge"] == 0
        for query, result in zip(queries, results):
            for embedding in result.embeddings:
                validate_embedding(graph, query, embedding)
        if not localized:
            assert sum(r.stats.kernel_merge for r in results) == 0
            assert 0 < calls["labeled_graph.py", "neighbor_set"] < frames_entered(results)
    assert answers[True] == answers[False]
