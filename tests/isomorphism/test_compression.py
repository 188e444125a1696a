"""Tests for BoostIso-style twin compression (:mod:`repro.isomorphism.compression`)."""

from __future__ import annotations

import pytest

from repro.datasets.paper_figures import figure4, figure5
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.compression import (
    CompressedGraph,
    count_embeddings_compressed,
    enumerate_embeddings_compressed,
)
from repro.isomorphism.qsearch import QSearchEngine, count_embeddings, enumerate_embeddings

from tests.conftest import connected_query_from, random_labeled_graph


class TestCompressedGraph:
    def test_false_twins_grouped(self):
        # v1 and v2 both attach only to v0: identical open neighborhoods.
        g = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2)])
        c = CompressedGraph(g)
        assert c.class_of[1] == c.class_of[2]
        assert not c.clique[c.class_of[1]]

    def test_true_twins_grouped_as_clique(self):
        # v1, v2 adjacent to each other and both to v0: closed twins.
        g = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2), (1, 2)])
        c = CompressedGraph(g)
        assert c.class_of[1] == c.class_of[2]
        assert c.clique[c.class_of[1]]

    def test_labels_respected(self):
        g = LabeledGraph(["a", "b", "c"], [(0, 1), (0, 2)])
        c = CompressedGraph(g)
        assert c.class_of[1] != c.class_of[2]

    def test_partition_covers_all_vertices(self):
        g = random_labeled_graph(30, 3, 0.2, seed=1)
        c = CompressedGraph(g)
        seen = sorted(v for members in c.classes for v in members)
        assert seen == list(g.vertices())

    def test_class_adjacency_consistent(self):
        g = random_labeled_graph(25, 3, 0.25, seed=2)
        c = CompressedGraph(g)
        for u, v in g.edges():
            cu, cv = c.class_of[u], c.class_of[v]
            if cu != cv:
                assert cv in c.neighbors(cu)

    def test_twin_heavy_graphs_compress_hard(self):
        # A hub with 50 interchangeable leaves per label: 102 vertices
        # collapse to 3 classes. (figure4's fans carry *private* leaves, so
        # they are deliberately twin-free — compression is orthogonal to
        # the §5 skipping strategies.)
        labels = ["a"] + ["b"] * 50 + ["c"] * 50
        edges = [(0, v) for v in range(1, 101)]
        c = CompressedGraph(LabeledGraph(labels, edges))
        assert c.num_classes == 3
        assert c.compression_ratio() < 0.05

    def test_compression_ratio_bounds(self):
        g = random_labeled_graph(20, 3, 0.3, seed=3)
        c = CompressedGraph(g)
        assert 0 < c.compression_ratio() <= 1.0


class TestCountingExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_match_plain_engine_random(self, seed):
        graph = random_labeled_graph(22, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 211)
        plain, complete = count_embeddings(graph, query)
        assert complete
        assert count_embeddings_compressed(graph, query) == (plain, True)

    def test_counts_match_on_twin_heavy_fixtures(self):
        for graph, query in (figure4(width=15), figure5(width=8, teasers=4)):
            plain, _ = count_embeddings(graph, query)
            assert count_embeddings_compressed(graph, query) == (plain, True)

    def test_same_class_query_nodes_need_clique(self):
        # Two same-label query nodes joined by an edge can only land in a
        # clique class; false twins cannot host them.
        g_false = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2)])
        g_true = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2), (1, 2)])
        q = QueryGraph(["b", "b"], [(0, 1)])
        assert count_embeddings_compressed(g_false, q) == (0, True)
        assert count_embeddings_compressed(g_true, q) == (2, True)

    def test_no_candidates(self):
        g = LabeledGraph(["a", "a"], [(0, 1)])
        q = QueryGraph(["z"])
        assert count_embeddings_compressed(g, q) == (0, True)


def test_class_level_count_fits_a_budget_the_plain_search_exceeds():
    """Twin classes shrink the search by >= 1.5x, counted in expansions.

    On the imdb stand-in (one-credit careers give popular works interchangeable
    casts, ratio ~0.54) a star fan-out is counted exactly by the class search
    inside two thirds of the vertex-level engine's expansions; singleton classes
    would run out of budget. ``W1`` x ``L0`` is the weakest of the six work x
    person stars (3.0x; the best is 5.1x).
    """
    graph = make_dataset("imdb", seed=0)  # bench scale
    star = QueryGraph(["W1", "L0", "L0", "L0"], [(0, 1), (0, 2), (0, 3)])
    plain = QSearchEngine(graph, star)
    count = sum(1 for _ in plain.embeddings())
    assert count > 300_000 and not plain.budget_exhausted
    compressed = graph.index_cache().compressed()
    assert count_embeddings_compressed(
        graph, star, compressed=compressed, node_budget=int(plain.nodes_expanded / 1.5)
    ) == (count, True)


class TestEnumerationExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_matches_plain_engine(self, seed):
        graph = random_labeled_graph(20, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 97)
        plain = set(enumerate_embeddings(graph, query))
        compressed = enumerate_embeddings_compressed(graph, query)
        assert set(compressed) == plain
        assert len(compressed) == len(plain)

    def test_limit(self):
        graph, query = figure4(width=10)
        full = enumerate_embeddings_compressed(graph, query)
        limited = enumerate_embeddings_compressed(graph, query, limit=1)
        assert len(limited) == min(1, len(full))

    def test_reusable_compression(self):
        graph = random_labeled_graph(20, 3, 0.25, seed=9)
        compressed = CompressedGraph(graph)
        q1 = connected_query_from(graph, 2, seed=1)
        q2 = connected_query_from(graph, 3, seed=2)
        for q in (q1, q2):
            plain, _ = count_embeddings(graph, q)
            count, complete = count_embeddings_compressed(graph, q, compressed=compressed)
            assert complete and count == plain
