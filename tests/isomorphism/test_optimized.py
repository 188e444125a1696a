"""Tests for the Section 5.3/5.4 switches of :class:`QSearchEngine`."""

from __future__ import annotations

import pytest

from repro.datasets.paper_figures import figure4, figure5
from repro.isomorphism.qsearch import QSearchEngine, enumerate_embeddings

from tests.conftest import (
    brute_force_embeddings,
    connected_query_from,
    optimized_engine,
    random_labeled_graph,
)


class TestExactness:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        graph = random_labeled_graph(20, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 101)
        got = set(optimized_engine(graph, query).embeddings())
        assert got == set(brute_force_embeddings(graph, query))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_engine(self, seed):
        graph = random_labeled_graph(25, 2, 0.2, seed=seed)
        query = connected_query_from(graph, 4, seed=seed + 53)
        plain = set(enumerate_embeddings(graph, query))
        optimized = set(optimized_engine(graph, query).embeddings())
        assert plain == optimized

    def test_exact_on_adversarial_fixtures(self):
        for graph, query in (figure4(width=25), figure5(width=12, teasers=6)):
            plain = set(enumerate_embeddings(graph, query))
            optimized = set(optimized_engine(graph, query).embeddings())
            assert plain == optimized

    def test_limit(self):
        """Same embeddings in the same order: the plain engine's limited
        enumeration is a prefix of the optimized stream."""
        graph = random_labeled_graph(25, 2, 0.25, seed=3)
        query = connected_query_from(graph, 2, seed=3)
        full = list(optimized_engine(graph, query).embeddings())
        assert enumerate_embeddings(graph, query, limit=2) == full[:2]

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_returns_nothing(self, limit):
        graph = random_labeled_graph(25, 2, 0.25, seed=3)
        query = connected_query_from(graph, 2, seed=3)
        assert list(optimized_engine(graph, query).embeddings())
        assert enumerate_embeddings(graph, query, limit=limit) == []


class TestPruningPower:
    def test_fewer_expansions_on_conflict_fixture(self):
        graph, query = figure4(width=60)
        plain = QSearchEngine(graph, query)
        list(plain.embeddings())
        opt = optimized_engine(graph, query)
        list(opt.embeddings())
        assert opt.nodes_expanded < plain.nodes_expanded
        assert opt.conflict_skips > 0

    def test_no_extra_expansions_on_bad_vertex_fixture(self):
        """The SQ engine's own search order may already dodge the figure5
        trap; the optimized engine must never do *more* work."""
        graph, query = figure5(width=30, teasers=15)
        plain = QSearchEngine(graph, query)
        list(plain.embeddings())
        opt = optimized_engine(graph, query)
        list(opt.embeddings())
        assert opt.nodes_expanded <= plain.nodes_expanded

    def test_strategies_toggleable(self):
        graph, query = figure4(width=40)
        off = QSearchEngine(graph, query)
        on = optimized_engine(graph, query)
        assert set(off.embeddings()) == set(on.embeddings())
        assert on.nodes_expanded <= off.nodes_expanded

    def test_budget(self):
        graph = random_labeled_graph(40, 2, 0.3, seed=9)
        query = connected_query_from(graph, 3, seed=9)
        engine = optimized_engine(graph, query, node_budget=20)
        list(engine.embeddings())
        assert engine.budget_exhausted
