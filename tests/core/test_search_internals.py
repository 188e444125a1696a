"""White-box tests for :class:`LevelSearchEngine` internals."""

from __future__ import annotations

import pytest

from repro.core.config import DSQLConfig
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.qsearch import enumerate_embeddings

from tests.conftest import passes_filter_stack


def engine_for(graph, query, config=None, matched=None):
    config = config or DSQLConfig(k=5)
    return LevelSearchEngine(
        graph,
        query,
        CandidateIndex(graph, query),
        config,
        SearchStats(),
        matched if matched is not None else set(),
    )


@pytest.fixture()
def setting():
    #      v0(a) - v1(b) - v2(c)
    #        \----- v3(b) - v4(c)
    graph = LabeledGraph(
        ["a", "b", "c", "b", "c"], [(0, 1), (1, 2), (0, 3), (3, 4)]
    )
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    return graph, query


class TestConflictSet:
    def test_static_part_is_query_neighbors(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        conflicts = engine._conflict_set(1, 0, set())
        assert {0, 2} <= conflicts

    def test_dynamic_part_catches_held_candidates(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        # Node 2 wants a "c" vertex; assign node 0 a vertex that could never
        # be node 2's candidate (label a) -> no dynamic conflict beyond
        # static. Now hold v2 (a valid c-candidate) under node 0's slot by
        # faking the assignment state (the assigned nodes are order[:depth]):
        engine.order = (0, 1, 2)
        engine._assignment[0] = 2  # vertex v2 has label c
        conflicts = engine._conflict_set(2, 1, set())
        assert 0 in conflicts  # v2 passes node 2's filters -> dynamic conflict
        engine._assignment[0] = 0  # v0 has label a
        assert 0 not in engine._conflict_set(2, 1, set())
        engine._assignment[0] = UNMATCHED

    def test_dynamic_part_is_the_full_filter_stack_whatever_the_pools_hold(self, setting):
        """Pool membership answers CT(u, beta) because the pools are the
        full stack — there is no view with a filter off: a held vertex is
        blamed exactly when it passes the failed node's label + degree +
        signature filters, recomputed here from the cache's tables."""
        graph, query = setting
        engine = engine_for(graph, query)
        engine.order = (0, 1, 2)
        for u in (1, 2):
            static = set(query.neighbors(u))
            for held in range(graph.num_vertices):
                engine._assignment[0] = held
                dynamic = {0} if passes_filter_stack(graph, query, u, held) else set()
                assert engine._conflict_set(u, 1, set()) == (static | dynamic) - {u}, (u, held)
        engine._assignment[0] = UNMATCHED

    def test_failure_set_excludes_self(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        blamed = {1, 7}  # what failed children blamed: extended, not copied
        conflicts = engine._conflict_set(1, 0, blamed)
        assert conflicts is blamed
        assert 1 not in conflicts and 7 in conflicts


class Watched(list):
    """A candidate list that counts how often a frame iterates it."""

    iterated = 0

    def __iter__(self):
        self.iterated += 1
        return super().__iter__()


def enter(engine, query, prefix):
    """Install the level-0 frames and assign ``prefix`` (vertices, in search
    order) as a frame at depth ``len(prefix)`` would find them."""
    frames = engine.candidates.plan.frames(query, ())
    engine.order, engine._frames = frames[0], frames[1:]
    for u, v in zip(engine.order, prefix):
        engine._assignment[u] = v
        engine._used.add(v)
    return engine._frames


class TestRcand:
    """What a frame reads as ``Rcand`` (the prologue lives in the frame)."""

    def test_localized_uses_father_neighborhood(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        view = engine.candidates
        root = view.plan.frames(query, ())[1][0]
        vf = view.candidates(root)[0]
        _root_frame, (child, father, *_), *_ = enter(engine, query, [vf])
        assert father == root
        # Rcand shrinks to N(father's match) ∩ candS(child) ...
        expected = [w for w in graph.neighbors(vf) if view.is_candidate(child, w)]
        assert view.localized(child, vf) == expected
        # ... and the frame reads the view's memo in place, not a copy.
        watched = view._localized[child][vf] = Watched(expected)
        assert engine._single_frame(1) is None
        assert watched.iterated == 1
        assert engine._assignment[child] in expected
        assert engine.stats.kernel_merge >= 1 and engine.stats.kernel_scan == 0

    def test_non_localized_returns_full_bucket(self, setting):
        graph, query = setting
        engine = engine_for(
            graph, query, DSQLConfig(k=5, localized_search=False)
        )
        order = engine.candidates.plan.frames(query, ())[0]
        embedding = enumerate_embeddings(graph, query)[-1]
        frames = enter(engine, query, [embedding[u] for u in order[:-1]])
        last, father = frames[-1][:2]
        pool = engine.candidates.candidates(last)
        engine._pools = tuple(Watched(p) for p in engine._pools)
        assert engine._single_frame(query.size - 1) is None
        assert engine._pools[last].iterated == 1
        assert engine.stats.kernel_scan == 1 and engine.stats.kernel_merge == 0
        # The whole pool is walked in order; adjacency to the father's match
        # (its neighbor set, probed per candidate) decides.
        chosen = engine._assignment[last]
        assert chosen == embedding[last]
        assert graph.has_edge(chosen, engine._assignment[father])
        assert engine.stats.nodes_expanded == pool.index(chosen) + 1 > 1

    def test_overlap_restricts_to_tcand(self, setting):
        graph, query = setting
        engine = engine_for(graph, query, DSQLConfig(k=5, localized_search=False))
        collected = []
        tcand = {u: {1} for u in range(query.size)}
        engine.run_level(1, tcand, lambda m: (collected.append(m), True)[1])
        # Only node 1 (label b) has a candidate in {v1}; v3's branch is cut.
        assert collected == [(0, 1, 2)]


class TestBudget:
    def test_charge_raises_past_budget(self, setting):
        graph, query = setting
        engine = engine_for(graph, query, DSQLConfig(k=5, node_budget=2))
        engine._meter.charge()
        engine._meter.charge()
        with pytest.raises(BudgetExceeded):
            engine._meter.charge()
        assert engine.stats.budget_exhausted


class TestRunLevelContract:
    def test_level0_yields_disjoint_embeddings(self, setting):
        graph, query = setting
        matched = set()
        engine = engine_for(graph, query, matched=matched)
        collected = []
        engine.run_level(0, {u: set() for u in range(3)}, lambda m: (collected.append(m), True)[1])
        flat = [v for m in collected for v in m]
        assert len(flat) == len(set(flat))
        assert matched == set(flat)

    def test_callback_stop_honored(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        collected = []

        def stop_after_one(mapping):
            collected.append(mapping)
            return False

        keep = engine.run_level(0, {u: set() for u in range(3)}, stop_after_one)
        assert not keep
        assert len(collected) == 1
