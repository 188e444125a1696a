"""Unit tests for :mod:`repro.graph.query_graph`."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(QueryError, match="at least one"):
            QueryGraph([])

    def test_disconnected_rejected(self):
        with pytest.raises(QueryError, match="connected"):
            QueryGraph(["a", "b", "c"], [(0, 1)])

    def test_single_node_ok(self):
        q = QueryGraph(["a"])
        assert q.size == 1

    def test_connected_ok(self):
        q = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        assert q.size == 3


class TestAQueryIsAValue:
    """Defect sixteen: ``canonical_key()`` is memoized and keys the result
    memo and the plan cache, and the inherited writers changed the edges
    under it — a written-to query was answered with its old self's memo
    entry (``from_cache=True``, the path's 2 embeddings where the triangle
    it had become has 1), and ``remove_edge`` left a validated query
    disconnected."""

    WRITES = {
        "add_vertex": ("d",),
        "add_edge": (0, 2),
        "remove_edge": (0, 1),
        "mutate": ([("add_edge", 0, 2)],),
        "replay": ([(1, ("add_edge", 0, 2))],),
    }

    @pytest.mark.parametrize("method", WRITES)
    def test_every_writer_raises_and_changes_nothing(self, method):
        from repro.core.dsql import DSQL

        graph = LabeledGraph(
            ["a", "b", "c", "a", "b", "c"], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]
        )
        session = DSQL(graph, k=5)
        q = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        key = q.canonical_key()
        (first,) = session.query_many([q])
        assert len(first.embeddings) == 2 and not first.from_cache
        with pytest.raises(QueryError, match=rf"{method}\(\) is not supported"):
            getattr(q, method)(*self.WRITES[method])
        assert q.canonical_key() == key == (tuple(q.labels), q.edge_tuples())
        assert q.edge_tuples() == ((0, 1), (1, 2)) and q.is_connected() and q._cache is None
        (again,) = session.query_many([q])
        assert again.from_cache and again.embeddings == first.embeddings
        triangle = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
        assert len(session.query(triangle).embeddings) == 1


class TestHelpers:
    def test_size_equals_num_vertices(self):
        q = QueryGraph(["a", "b"], [(0, 1)])
        assert q.size == q.num_vertices == 2

    def test_from_graph(self):
        g = LabeledGraph(["a", "b"], [(0, 1)], name="g")
        q = QueryGraph.from_graph(g)
        assert isinstance(q, QueryGraph)
        assert q.size == 2
        assert q.name == "g"

    def test_from_graph_disconnected_rejected(self):
        g = LabeledGraph(["a", "b"], [])
        with pytest.raises(QueryError):
            QueryGraph.from_graph(g)

    def test_edge_tuples_sorted(self):
        q = QueryGraph(["a", "b", "c"], [(2, 1), (1, 0)])
        assert q.edge_tuples() == ((0, 1), (1, 2))

    def test_canonical_key_equal_for_equal_queries(self):
        q1 = QueryGraph(["a", "b"], [(0, 1)])
        q2 = QueryGraph(["a", "b"], [(1, 0)])
        assert q1.canonical_key() == q2.canonical_key()

    def test_canonical_key_differs_on_labels(self):
        q1 = QueryGraph(["a", "b"], [(0, 1)])
        q2 = QueryGraph(["a", "c"], [(0, 1)])
        assert q1.canonical_key() != q2.canonical_key()
