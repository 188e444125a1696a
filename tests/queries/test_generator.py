"""Unit tests for :mod:`repro.queries.generator`."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.generator import query_set, random_query

from tests.conftest import random_labeled_graph


@pytest.fixture(scope="module")
def graph():
    return random_labeled_graph(60, 4, 0.15, seed=3)


class TestRandomQuery:
    def test_edge_count(self, graph):
        for z in (1, 3, 5):
            q = random_query(graph, z, rng=random.Random(1))
            assert q.num_edges == z

    def test_connected(self, graph):
        for seed in range(10):
            q = random_query(graph, 4, rng=random.Random(seed))
            assert q.is_connected()

    def test_labels_come_from_graph(self, graph):
        q = random_query(graph, 5, rng=random.Random(2))
        assert set(q.labels) <= graph.label_set()

    def test_query_is_actual_subgraph(self, graph):
        """The sampled query must embed in its source graph (itself)."""
        from tests.conftest import brute_force_embeddings

        q = random_query(graph, 3, rng=random.Random(4))
        assert brute_force_embeddings(graph, q)

    def test_zero_edges_rejected(self, graph):
        with pytest.raises(DatasetError, match="at least 1 edge"):
            random_query(graph, 0)

    def test_too_many_edges_rejected(self):
        g = LabeledGraph(["a", "b"], [(0, 1)])
        with pytest.raises(DatasetError, match="cannot sample"):
            random_query(g, 5)

    def test_restarts_exhaust_small_components(self):
        # Two tiny components: a 5-edge connected query cannot exist.
        g = LabeledGraph(["a"] * 6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DatasetError):
            random_query(g, 5, rng=random.Random(0))

    def test_deterministic_for_seeded_rng(self, graph):
        q1 = random_query(graph, 4, rng=random.Random(9))
        q2 = random_query(graph, 4, rng=random.Random(9))
        assert q1.canonical_key() == q2.canonical_key()


class TestQuerySet:
    def test_count(self, graph):
        qs = query_set(graph, 3, 7, seed=1)
        assert len(qs) == 7

    def test_seeded_batches_reproducible(self, graph):
        a = query_set(graph, 3, 5, seed=42)
        b = query_set(graph, 3, 5, seed=42)
        assert [q.canonical_key() for q in a] == [q.canonical_key() for q in b]

    def test_iter_query_sets_sizes(self, graph):
        """A sweep over query sizes is one ``query_set`` per size."""
        batches = {size: query_set(graph, size, 4, seed=0) for size in (1, 2, 3)}
        for size, batch in batches.items():
            assert len(batch) == 4
            assert all(q.num_edges == size for q in batch)

    def test_iter_query_sets_distinct_per_size(self, graph):
        """At every size a batch is consecutive draws from one seeded
        stream, not one query repeated."""
        for size in (2, 3):
            rng = random.Random(5)
            draws = [random_query(graph, size, rng).canonical_key() for _ in range(6)]
            assert [q.canonical_key() for q in query_set(graph, size, 6, seed=5)] == draws
            assert len(set(draws)) > 1
