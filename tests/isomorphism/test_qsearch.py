"""Unit tests for :mod:`repro.isomorphism.qsearch`.

The central property: the engine enumerates exactly the embeddings a naive
brute force finds, across a spread of small random graphs and query shapes.
"""

from __future__ import annotations

import pytest

from repro.baselines.firstk import first_k_baseline
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.qsearch import (
    QSearchEngine,
    connected_search_order,
    count_embeddings,
    enumerate_embeddings,
)
from repro.queries.ordering import selectivity_order

from tests.conftest import (
    brute_force_embeddings,
    connected_query_from,
    random_labeled_graph,
)


class TestConnectedSearchOrder:
    def test_order_keeps_connectivity(self):
        q = QueryGraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
        idx_graph = LabeledGraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
        idx = CandidateIndex(idx_graph, q)
        order = connected_search_order(q, selectivity_order(q, idx))
        placed = {order[0]}
        for u in order[1:]:
            assert set(q.neighbors(u)) & placed, f"node {u} has no earlier neighbor"
            placed.add(u)

    def test_order_is_permutation(self):
        q = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        g = LabeledGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        order = connected_search_order(q, selectivity_order(q, CandidateIndex(g, q)))
        assert sorted(order) == [0, 1, 2]


class TestEnumerationCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_random(self, seed):
        graph = random_labeled_graph(18, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 100)
        expected = set(brute_force_embeddings(graph, query))
        got = set(enumerate_embeddings(graph, query))
        assert got == expected

    @pytest.mark.parametrize("edges", [1, 2, 4, 5])
    def test_matches_brute_force_query_sizes(self, edges):
        graph = random_labeled_graph(16, 2, 0.3, seed=11)
        query = connected_query_from(graph, edges, seed=edges)
        assert set(enumerate_embeddings(graph, query)) == set(
            brute_force_embeddings(graph, query)
        )

    def test_single_node_query(self):
        graph = LabeledGraph(["a", "a", "b"], [(0, 1), (1, 2)])
        query = QueryGraph(["a"])
        assert set(enumerate_embeddings(graph, query)) == {(0,), (1,)}

    def test_no_matches(self):
        graph = LabeledGraph(["a", "a"], [(0, 1)])
        query = QueryGraph(["a", "z"], [(0, 1)])
        assert enumerate_embeddings(graph, query) == []

    def test_triangle_symmetry_counted(self):
        # A same-label triangle has 3! = 6 automorphic embeddings.
        graph = LabeledGraph(["x", "x", "x"], [(0, 1), (1, 2), (0, 2)])
        query = QueryGraph(["x", "x", "x"], [(0, 1), (1, 2), (0, 2)])
        assert len(enumerate_embeddings(graph, query)) == 6

    def test_distinct_vertex_sets(self):
        graph = LabeledGraph(["x", "x", "x"], [(0, 1), (1, 2), (0, 2)])
        query = QueryGraph(["x", "x", "x"], [(0, 1), (1, 2), (0, 2)])
        assert len(enumerate_embeddings(graph, query, distinct_vertex_sets=True)) == 1


class TestLimitsAndBudgets:
    def test_limit(self):
        graph = random_labeled_graph(20, 2, 0.3, seed=2)
        query = connected_query_from(graph, 2, seed=3)
        full = enumerate_embeddings(graph, query)
        assert len(enumerate_embeddings(graph, query, limit=3)) == min(3, len(full))

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_returns_nothing(self, limit):
        graph = random_labeled_graph(20, 2, 0.3, seed=2)
        query = connected_query_from(graph, 2, seed=3)
        assert enumerate_embeddings(graph, query)  # the instance has embeddings
        assert enumerate_embeddings(graph, query, limit=limit) == []
        assert first_k_baseline(graph, query, limit).embeddings == []

    def test_first_k(self):
        """Table 3's first k: the engine's first k distinct vertex sets."""
        graph = random_labeled_graph(20, 2, 0.3, seed=2)
        query = connected_query_from(graph, 2, seed=3)
        k = first_k_baseline(graph, query, 5).embeddings
        assert len(k) <= 5
        assert k == enumerate_embeddings(graph, query, limit=5, distinct_vertex_sets=True)

    def test_budget_truncates(self):
        graph = random_labeled_graph(30, 2, 0.4, seed=5)
        query = connected_query_from(graph, 3, seed=5)
        engine = QSearchEngine(graph, query, node_budget=10)
        results = list(engine.embeddings())
        assert engine.budget_exhausted
        full = enumerate_embeddings(graph, query)
        assert len(results) <= len(full)

    def test_count_embeddings_complete_flag(self):
        graph = random_labeled_graph(15, 3, 0.25, seed=6)
        query = connected_query_from(graph, 2, seed=6)
        count, complete = count_embeddings(graph, query)
        assert complete
        assert count == len(brute_force_embeddings(graph, query))

    def test_count_embeddings_budget_flag(self):
        graph = random_labeled_graph(30, 2, 0.4, seed=5)
        query = connected_query_from(graph, 3, seed=5)
        _, complete = count_embeddings(graph, query, node_budget=5)
        assert not complete

    def test_has_embedding(self):
        graph = LabeledGraph(["a", "b"], [(0, 1)])
        assert enumerate_embeddings(graph, QueryGraph(["a", "b"], [(0, 1)]), limit=1)
        assert not enumerate_embeddings(graph, QueryGraph(["a", "a"], [(0, 1)]), limit=1)


class TestEmbeddingValidity:
    def test_all_outputs_valid(self):
        from repro.graph.validation import validate_embedding

        graph = random_labeled_graph(25, 3, 0.2, seed=9)
        query = connected_query_from(graph, 4, seed=9)
        for mapping in enumerate_embeddings(graph, query):
            validate_embedding(graph, query, mapping)

    def test_no_duplicate_mappings(self):
        graph = random_labeled_graph(25, 3, 0.2, seed=10)
        query = connected_query_from(graph, 3, seed=10)
        out = enumerate_embeddings(graph, query)
        assert len(out) == len(set(out))
