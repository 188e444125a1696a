"""Unit tests for :mod:`repro.baselines.random_start`."""

from __future__ import annotations

from repro.baselines.random_start import random_start_search
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import embeddings_distinct, validate_embedding

from tests.conftest import connected_query_from, random_labeled_graph


class TestRandomStart:
    def test_returns_at_most_k(self):
        graph = random_labeled_graph(30, 2, 0.25, seed=11)
        query = connected_query_from(graph, 2, seed=11)
        r = random_start_search(graph, query, 4)
        assert len(r.embeddings) <= 4

    def test_valid_and_distinct(self):
        graph = random_labeled_graph(30, 2, 0.25, seed=12)
        query = connected_query_from(graph, 3, seed=12)
        r = random_start_search(graph, query, 6)
        assert embeddings_distinct(r.embeddings)
        for emb in r.embeddings:
            validate_embedding(graph, query, emb)

    def test_one_embedding_per_root(self):
        graph = random_labeled_graph(40, 2, 0.25, seed=13)
        query = connected_query_from(graph, 2, seed=13)
        r = random_start_search(graph, query, 10)
        # Roots are distinct candidates, so no vertex can anchor two results
        # at the root node position... which node is root depends on
        # ordering; assert distinct vertex sets instead (per-root dedup).
        assert embeddings_distinct(r.embeddings)

    def test_no_candidates(self):
        graph = LabeledGraph(["a", "a"], [(0, 1)])
        r = random_start_search(graph, QueryGraph(["a", "z"], [(0, 1)]), 3)
        assert r.embeddings == []

    def test_seeded_determinism(self):
        graph = random_labeled_graph(30, 2, 0.25, seed=14)
        query = connected_query_from(graph, 2, seed=14)
        assert (
            random_start_search(graph, query, 5, seed=2).embeddings
            == random_start_search(graph, query, 5, seed=2).embeddings
        )

    def test_ratio(self):
        graph = random_labeled_graph(30, 2, 0.25, seed=15)
        query = connected_query_from(graph, 2, seed=15)
        r = random_start_search(graph, query, 5)
        assert r.approx_ratio_lower_bound() == r.coverage / (5 * query.size)

    def test_node_budget_caps_the_whole_run(self):
        """The budget is one counter across all roots, as in COM."""
        n = 10
        graph = LabeledGraph(["a", "b"] * n, [(2 * i, 2 * i + 1) for i in range(n)])
        query = QueryGraph(["a", "b"], [(0, 1)])
        assert len(random_start_search(graph, query, n).embeddings) == n
        assert len(random_start_search(graph, query, n, node_budget=1).embeddings) == 1
