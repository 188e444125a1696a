"""Tests for the twin-class partition (:mod:`repro.isomorphism.compression`).

The partition is read by the level engine's compressed join
(``use_compression=True``); a compiled plan does not depend on it. The
exactness tests below hand ``QSearchEngine`` a freshly compiled plan, not
the memo's: it yields the default engine's stream, in the same order and
for the same number of expansions.
"""

from __future__ import annotations

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.paper_figures import figure4, figure5
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.plans import compile_plan
from repro.isomorphism.compression import CompressedGraph
from repro.isomorphism.qsearch import QSearchEngine, enumerate_embeddings

from tests.conftest import connected_query_from, random_labeled_graph


def streams(graph, query):
    """``(default, handed)``: the embeddings and expansion counts of
    ``QSearchEngine`` over the memoized plan and over a fresh compile."""
    plan = compile_plan(query, graph.index_cache())
    engines = (QSearchEngine(graph, query), QSearchEngine(graph, query, plan=plan))
    return [(list(engine.embeddings()), engine.nodes_expanded) for engine in engines]


def assert_same_stream(graph, query):
    """The handed plan's stream is the default one; returns it."""
    default, handed = streams(graph, query)
    assert handed == default
    return default[0]


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
        assert_same_stream(graph, query)

    def test_counts_match_on_twin_heavy_fixtures(self):
        # The paper's two fixtures, and a hub whose 40 leaves per label are
        # one class each (the fixtures' fans are private, hence twin-free).
        hub = LabeledGraph(["a"] + ["b"] * 40 + ["c"] * 40, [(0, v) for v in range(1, 81)])
        assert hub.index_cache().compressed().num_classes == 3
        star = QueryGraph(["a", "b", "b", "c"], [(0, 1), (0, 2), (0, 3)])
        for graph, query in (figure4(width=15), figure5(width=8, teasers=4), (hub, star)):
            assert assert_same_stream(graph, query)
        assert len(assert_same_stream(hub, star)) == 40 * 39 * 40

    def test_same_class_query_nodes_need_clique(self):
        # Two same-label query nodes joined by an edge can only land in a
        # clique class; false twins cannot host them.
        g_false = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2)])
        g_true = LabeledGraph(["a", "b", "b"], [(0, 1), (0, 2), (1, 2)])
        q = QueryGraph(["b", "b"], [(0, 1)])
        assert assert_same_stream(g_false, q) == []
        assert assert_same_stream(g_true, q) == [(1, 2), (2, 1)]

    def test_no_candidates(self):
        g = LabeledGraph(["a", "a"], [(0, 1)])
        q = QueryGraph(["z"])
        assert streams(g, q) == [([], 0), ([], 0)]


def test_class_level_count_fits_a_budget_the_plain_search_exceeds():
    """On a twin-rich star, a handed plan counts exactly what the default does.

    The imdb stand-in (one-credit careers give popular works interchangeable
    casts, ratio ~0.54) is where twin classes are largest; a star fan-out
    over it is counted through a freshly compiled plan in exactly the
    default engine's expansions.
    """
    graph = make_dataset("imdb", seed=0)  # bench scale
    assert graph.index_cache().compressed().compression_ratio() < 0.6
    star = QueryGraph(["W1", "L0", "L0", "L0"], [(0, 1), (0, 2), (0, 3)])
    plan = compile_plan(star, graph.index_cache())
    counts = []
    for engine in (QSearchEngine(graph, star), QSearchEngine(graph, star, plan=plan)):
        counts.append((sum(1 for _ in engine.embeddings()), engine.nodes_expanded))
        assert not engine.budget_exhausted
    assert counts[0] == counts[1] and counts[0][0] > 300_000


class TestEnumerationExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_matches_plain_engine(self, seed):
        graph = random_labeled_graph(20, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 97)
        stream = assert_same_stream(graph, query)
        assert stream == enumerate_embeddings(graph, query)
        assert len(set(stream)) == len(stream)

    def test_limit(self):
        graph, query = figure4(width=10)
        full = assert_same_stream(graph, query)
        plan = compile_plan(query, graph.index_cache())
        first = next(QSearchEngine(graph, query, plan=plan).embeddings())
        assert [first] == full[:1] == enumerate_embeddings(graph, query, limit=1)

    def test_reusable_compression(self):
        # One partition per graph, shared by every compressed session on it.
        graph = random_labeled_graph(20, 3, 0.25, seed=9)
        partition = graph.index_cache().compressed()
        for q in (connected_query_from(graph, 2, seed=1), connected_query_from(graph, 3, seed=2)):
            assert_same_stream(graph, q)
            DSQL(graph, DSQLConfig(k=3, use_compression=True)).query(q)
            assert graph.index_cache().compressed() is partition
