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
        conflicts = engine._conflict_set(1)
        assert {0, 2} <= conflicts

    def test_dynamic_part_catches_held_candidates(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        # Node 2 wants a "c" vertex; assign node 0 a vertex that could never
        # be node 2's candidate (label a) -> no dynamic conflict beyond
        # static. Now hold v2 (a valid c-candidate) under node 0's slot by
        # faking the assignment state:
        engine._assignment[0] = 2  # vertex v2 has label c
        conflicts = engine._conflict_set(2)
        assert 0 in conflicts  # v2 passes node 2's filters -> dynamic conflict
        engine._assignment[0] = UNMATCHED

    def test_failure_set_excludes_self(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        conflicts = engine._conflict_set(1)
        assert 1 not in conflicts


class TestRcand:
    def test_localized_uses_father_neighborhood(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        _order, root_frame, child_frame = engine.candidates.plan.frames(query, ())[:3]
        root, (child, father) = root_frame[0], child_frame[:2]
        assert father == root
        # Assign the father of some non-root node and check Rcand shrinks.
        vf = engine._assignment[root] = engine.candidates.candidates(root)[0]
        rcand = engine._rcand(child, father, is_overlap=False)
        assert rcand == [w for w in graph.neighbors(vf) if engine.candidates.is_candidate(child, w)]
        assert rcand is engine.candidates.localized(child, vf)  # the view's memo, not a copy
        assert engine.stats.kernel_merge == 1
        engine._assignment[root] = UNMATCHED

    def test_non_localized_returns_full_bucket(self, setting):
        graph, query = setting
        engine = engine_for(
            graph, query, DSQLConfig(k=5, localized_search=False)
        )
        child, father = engine.candidates.plan.frames(query, ())[2][:2]
        rcand = engine._rcand(child, father, is_overlap=False)
        assert set(rcand) == set(engine.candidates.candidates(child))
        assert engine.stats.kernel_scan == 1

    def test_overlap_restricts_to_tcand(self, setting):
        graph, query = setting
        engine = engine_for(graph, query, DSQLConfig(k=5, localized_search=False))
        engine._tcand = {u: {1} for u in range(query.size)}
        rcand = engine._rcand(1, -1, is_overlap=True)
        assert set(rcand) <= {1}


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
