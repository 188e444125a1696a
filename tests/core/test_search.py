"""Tests for the level search engine's optimization strategies (Section 5).

The load-bearing property: the conflict-table (§5.3) and bad-vertex (§5.4)
strategies are *pruning-only* — they must not change which embeddings Phase 1
collects, only how much work finding them takes. The single-embedding cap
(§5.2) and the DSQLh relaxation are allowed to lose embeddings.
"""

from __future__ import annotations

import pytest

from repro.core.config import DSQLConfig
from repro.core.phase1 import run_phase1
from repro.core.state import SearchStats
from repro.graph.validation import validate_embedding
from repro.indexes.candidates import CandidateIndex

from tests.conftest import connected_query_from, pool_walks, random_labeled_graph


def collect(graph, query, config):
    stats = SearchStats()
    out = run_phase1(graph, query, config, CandidateIndex(graph, query), stats)
    return out.state, stats


def vertex_sets(state):
    return sorted(sorted(e) for e in state.embeddings)


@pytest.mark.parametrize("seed", range(12))
class TestPruningStrategiesPreserveResults:
    def test_conflict_tables_lossless(self, seed):
        graph = random_labeled_graph(35, 3, 0.18, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 31)
        base, _ = collect(graph, query, DSQLConfig.dsql0(6))
        conf, _ = collect(graph, query, DSQLConfig.dsql2(6))
        assert vertex_sets(base) == vertex_sets(conf)

    def test_bad_vertices_lossless(self, seed):
        graph = random_labeled_graph(35, 3, 0.18, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 31)
        base, _ = collect(graph, query, DSQLConfig.dsql0(6))
        bad, _ = collect(graph, query, DSQLConfig.dsql3(6))
        assert vertex_sets(base) == vertex_sets(bad)

    def test_all_variants_return_valid_embeddings(self, seed):
        graph = random_labeled_graph(30, 3, 0.2, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 5)
        for factory in (
            DSQLConfig.dsql0,
            DSQLConfig.dsql1,
            DSQLConfig.dsql2,
            DSQLConfig.dsql3,
            DSQLConfig.full,
            DSQLConfig.dsqlh,
        ):
            state, _ = collect(graph, query, factory(5))
            for emb in state.embeddings:
                validate_embedding(graph, query, emb)


class TestStrategyCounters:
    def test_conflict_skips_counted_somewhere(self):
        """Across a battery of graphs the conflict strategy must fire."""
        total = 0
        for seed in range(10):
            graph = random_labeled_graph(40, 2, 0.15, seed=seed)
            query = connected_query_from(graph, 4, seed=seed + 13)
            _, stats = collect(graph, query, DSQLConfig.dsql2(8))
            total += stats.conflict_skips
        assert total > 0

    def test_cap_hits_counted_somewhere(self):
        total = 0
        for seed in range(10):
            graph = random_labeled_graph(40, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 4, seed=seed + 17)
            _, stats = collect(graph, query, DSQLConfig.dsql1(8))
            total += stats.candidate_cap_hits
        assert total > 0

    def test_nodes_expanded_monotone_under_pruning(self):
        """Pruning strategies must not *increase* expansions (same results)."""
        worse = 0
        for seed in range(10):
            graph = random_labeled_graph(40, 2, 0.15, seed=seed)
            query = connected_query_from(graph, 4, seed=seed + 3)
            _, s0 = collect(graph, query, DSQLConfig.dsql0(8))
            _, s2 = collect(graph, query, DSQLConfig.dsql2(8))
            if s2.nodes_expanded > s0.nodes_expanded:
                worse += 1
        assert worse == 0


class TestLocalizedSearchToggle:
    def test_non_localized_matches_localized_results(self, monkeypatch):
        """Localization is not a setting: in every run, only the root of
        the order being searched walks its whole pool; every frame with a
        father reads ``N(father's match) ∩ candS(u)``."""
        with pytest.raises(TypeError):
            DSQLConfig.dsql0(5, localized_search=False)
        walks = pool_walks(monkeypatch)
        for seed in range(6):
            graph = random_labeled_graph(25, 3, 0.2, seed=seed)
            query = connected_query_from(graph, 3, seed=seed + 41)
            del walks[:]
            state, stats = collect(graph, query, DSQLConfig.dsql0(5))
            assert state.embeddings and stats.kernel_merge > 0, seed
            assert walks and all(node == root for node, root in walks), seed
