"""Unit tests for DSQL Phase 1 (Algorithm 3) invariants."""

from __future__ import annotations

from repro.core.config import DSQLConfig
from repro.core.phase1 import run_phase1, tcand_snapshot
from repro.core.state import SearchStats
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import (
    embeddings_distinct,
    embeddings_pairwise_disjoint,
    validate_embedding,
)
from repro.indexes.candidates import CandidateIndex

from tests.conftest import (
    brute_force_distinct_vertex_sets,
    connected_query_from,
    random_labeled_graph,
)


def phase1(graph, query, config):
    stats = SearchStats()
    out = run_phase1(graph, query, config, CandidateIndex(graph, query), stats)
    return out, stats


class TestBasicBehaviour:
    def test_no_candidates_returns_empty_exhausted(self):
        graph = LabeledGraph(["a", "a"], [(0, 1)])
        query = QueryGraph(["a", "z"], [(0, 1)])
        out, stats = phase1(graph, query, DSQLConfig(k=3))
        assert out.exhausted
        assert len(out.state) == 0

    def test_k_cap_respected(self, fig2):
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=2))
        assert len(out.state) == 2
        assert not out.exhausted

    def test_all_embeddings_valid(self, fig2):
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=10))
        for emb in out.state.embeddings:
            validate_embedding(graph, query, emb)

    def test_vertex_sets_distinct(self, fig2):
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=10))
        assert embeddings_distinct(out.state.embeddings)

    def test_level0_result_disjoint(self, fig2):
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=2))
        assert out.level == 0
        assert embeddings_pairwise_disjoint(out.state.embeddings)


class TestLevelAccounting:
    def test_coverage_matches_per_level_contributions(self):
        """An embedding accepted at level i contributes exactly q - i vertices."""
        for seed in range(6):
            graph = random_labeled_graph(40, 3, 0.15, seed=seed)
            query = connected_query_from(graph, 3, seed=seed)
            out, stats = phase1(graph, query, DSQLConfig(k=8))
            q = query.size
            expected = sum(
                (q - level) * count for level, count in stats.per_level_added.items()
            )
            assert out.state.coverage == expected, seed

    def test_levels_do_not_exceed_q(self, fig2):
        graph, query = fig2
        out, stats = phase1(graph, query, DSQLConfig(k=100))
        assert out.level <= query.size - 1
        assert stats.phase1_levels <= query.size

    def test_figure2_trace(self, fig2):
        """Example 2: k=6 stops at level 2 with the paper's six embeddings."""
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=6, single_embedding_mode=False))
        assert len(out.state) == 6
        assert out.level == 2
        got = {frozenset(e) for e in out.state.embeddings}
        paper = {
            frozenset(v - 1 for v in s)
            for s in [{1, 2, 3}, {7, 8, 9}, {1, 5, 6}, {14, 2, 15}, {16, 17, 3}, {1, 8, 13}]
        }
        assert got == paper


class TestExhaustion:
    def test_exhausted_flag_when_under_k(self, fig2):
        graph, query = fig2
        out, _ = phase1(graph, query, DSQLConfig(k=100))
        assert out.exhausted
        assert len(out.state) < 100

    def test_exhaustive_level_collects_at_least_as_much(self):
        for seed in range(5):
            graph = random_labeled_graph(30, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 2, seed=seed + 50)
            base, _ = phase1(graph, query, DSQLConfig(k=50))
            strict, _ = phase1(graph, query, DSQLConfig(k=50, exhaustive_level=True))
            assert strict.state.coverage >= base.state.coverage, seed

    def test_exhaustive_under_k_covers_every_embedding(self):
        """Strict maximality: every embedding lies inside the final cover."""
        for seed in range(6):
            graph = random_labeled_graph(25, 3, 0.2, seed=seed)
            query = connected_query_from(graph, 3, seed=seed + 7)
            config = DSQLConfig(
                k=1000, exhaustive_level=True, single_embedding_mode=False
            )
            out, _ = phase1(graph, query, config)
            assert out.exhausted
            cover = out.state.covered
            for vs in brute_force_distinct_vertex_sets(graph, query):
                assert vs <= cover, (seed, vs)


class TestBudget:
    def test_budget_truncates_cleanly(self):
        graph = random_labeled_graph(50, 2, 0.3, seed=1)
        query = connected_query_from(graph, 3, seed=1)
        config = DSQLConfig(k=1000, node_budget=50)
        out, stats = phase1(graph, query, config)
        assert stats.budget_exhausted
        for emb in out.state.embeddings:
            validate_embedding(graph, query, emb)


class TestTcandSnapshot:
    def test_snapshot_is_intersection(self):
        graph = LabeledGraph(["a", "a", "b"], [(0, 2), (1, 2)])
        query = QueryGraph(["a", "b"], [(0, 1)])
        idx = CandidateIndex(graph, query)
        snap = tcand_snapshot(idx.plan, {0, 2}, query.size)
        assert snap[0] == {0}
        assert snap[1] == {2}
