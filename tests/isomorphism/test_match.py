"""Unit tests for :mod:`repro.isomorphism.match`, and for the objective
views that replaced its vertex-set, matched-edge and match-subgraph helpers
(the tests keep those helpers' names)."""

from __future__ import annotations

from repro.coverage.objectives import EdgeCoverage, VertexCoverage
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import is_valid_embedding
from repro.isomorphism.match import distinct_by_vertex_set


def _setting():
    graph = LabeledGraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    return graph, query


def match_subgraph(graph, query, mapping):
    """The matched subgraph ``G'`` of Section 2 from the edge objective's
    elements: matched vertices, and only the edges witnessing query edges."""
    vs = sorted(set(mapping))
    remap = {v: i for i, v in enumerate(vs)}
    edges = [(remap[a], remap[b]) for a, b in EdgeCoverage(query).elements(mapping)]
    return LabeledGraph([graph.label(v) for v in vs], edges)


class TestVertexSet:
    def test_basic(self):
        assert VertexCoverage.elements((3, 1, 2)) == frozenset({1, 2, 3})

    def test_frozen(self):
        assert isinstance(VertexCoverage.elements([1]), frozenset)
        key = frozenset({4})
        assert VertexCoverage.elements(key) is key


class TestMatchedEdges:
    def test_normalized_sorted(self):
        _, query = _setting()
        assert EdgeCoverage(query).elements((2, 1, 0)) == {(0, 1), (1, 2)}

    def test_only_query_edges(self):
        graph, query = _setting()
        # The data edge (0, 2) exists but is not a query edge: excluded.
        edges = EdgeCoverage(query).elements((0, 1, 2))
        assert graph.has_edge(0, 2) and (0, 2) not in edges


class TestInducedMatchSubgraph:
    def test_labels_and_structure(self):
        graph, query = _setting()
        sub = match_subgraph(graph, query, (0, 1, 2))
        assert list(sub.labels) == ["a", "b", "c"]
        assert sub.num_edges == 2  # not the induced triangle

    def test_is_isomorphic_to_query(self):
        graph, query = _setting()
        assert is_valid_embedding(graph, query, (0, 1, 2))
        sub = match_subgraph(graph, query, (0, 1, 2))
        assert sorted(sub.degree_sequence()) == sorted(query.degree_sequence())


class TestDistinctByVertexSet:
    def test_dedup(self):
        out = list(distinct_by_vertex_set([(0, 1), (1, 0), (1, 2)]))
        assert out == [(0, 1), (1, 2)]

    def test_keeps_first_occurrence(self):
        out = list(distinct_by_vertex_set([(5, 6), (6, 5)]))
        assert out == [(5, 6)]

    def test_empty(self):
        assert list(distinct_by_vertex_set([])) == []
