"""Integration tests pinning the paper's worked examples end to end."""

from __future__ import annotations

from repro import DSQLConfig, diversified_search
from repro.baselines import com_search, first_k_baseline
from repro.core.dsql import DSQL


class TestExample1TeamFormation:
    """Section 1 / Figure 1: the motivating team query."""

    def test_k2_gives_disjoint_optimal_teams(self, fig1):
        graph, query = fig1
        result = diversified_search(graph, query, k=2)
        assert len(result) == 2
        assert result.is_disjoint()
        assert result.optimal
        assert result.coverage == 8

    def test_level0_anchored_at_distinct_managers(self, fig1):
        """The two teams use distinct PMs — the diversity the paper wants."""
        graph, query = fig1
        result = diversified_search(graph, query, k=2)
        managers = {emb[0] for emb in result.embeddings}
        assert len(managers) == 2

    def test_overlapping_strawman_rejected(self, fig1):
        """The paper's bad answer shares PM/PRG/ST; DSQL's must not."""
        graph, query = fig1
        result = diversified_search(graph, query, k=2)
        a, b = map(set, result.embeddings)
        assert not (a & b)


class TestExample2LevelTrace:
    """Section 4.1 / Figure 2: the level-by-level walk-through."""

    def test_k6_needs_level_2(self, fig2):
        graph, query = fig2
        result = diversified_search(graph, query, k=6, single_embedding_mode=False)
        assert len(result) == 6
        assert result.level == 2

    def test_k2_stops_at_level_0(self, fig2):
        graph, query = fig2
        result = diversified_search(graph, query, k=2)
        assert result.level == 0
        assert result.optimal_reason == "disjoint"

    def test_k5_stops_at_level_1(self, fig2):
        graph, query = fig2
        result = diversified_search(graph, query, k=5, single_embedding_mode=False)
        assert result.level == 1
        assert len(result) == 5

    def test_level2_embedding_overlaps_twice(self, fig2):
        graph, query = fig2
        result = diversified_search(graph, query, k=6, single_embedding_mode=False)
        last = set(result.embeddings[-1])
        earlier = set().union(*(set(e) for e in result.embeddings[:-1]))
        assert len(last & earlier) == 2


class TestCaseStudies:
    def test_imdb_dsql_beats_com_coverage(self, imdb_small):
        """Section 7.2 shape: DSQL coverage >= COM coverage."""
        graph, query = imdb_small
        k = 10
        dsql = diversified_search(graph, query, k=k)
        com = com_search(graph, query, k)
        assert dsql.coverage >= com.coverage

    def test_dbpedia_dsql_beats_first_k(self, dbpedia_small):
        graph, query = dbpedia_small
        k = 10
        dsql = diversified_search(graph, query, k=k)
        firstk = first_k_baseline(graph, query, k)
        assert dsql.coverage >= firstk.coverage

    def test_solver_object_batch(self, dbpedia_small):
        graph, query = dbpedia_small
        solver = DSQL(graph, config=DSQLConfig(k=5))
        results = [solver.query(query) for _ in range(3)]
        assert len({r.coverage for r in results}) == 1  # deterministic
