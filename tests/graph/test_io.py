"""Unit tests for :mod:`repro.graph.io`."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graph.io import (
    dump_edge_list,
    dump_json,
    load_edge_list,
    load_json,
    load_query,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph


@pytest.fixture()
def graph():
    return LabeledGraph(["a", "b", "b"], [(0, 1), (1, 2)], name="tiny")


class TestEdgeListFormat:
    def test_roundtrip(self, graph, tmp_path):
        path = tmp_path / "g.lg"
        dump_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 3
        assert list(loaded.labels) == ["a", "b", "b"]
        assert set(loaded.edges()) == {(0, 1), (1, 2)}

    def test_header_mismatch_vertices(self, tmp_path):
        path = tmp_path / "bad.lg"
        path.write_text("t 5 1\nv 0 a\nv 1 b\ne 0 1\n")
        with pytest.raises(GraphError, match="declares 5 vertices"):
            load_edge_list(path)

    def test_header_mismatch_edges(self, tmp_path):
        path = tmp_path / "bad.lg"
        path.write_text("t 2 9\nv 0 a\nv 1 b\ne 0 1\n")
        with pytest.raises(GraphError, match="declares 9 edges"):
            load_edge_list(path)

    def test_non_dense_ids(self, tmp_path):
        path = tmp_path / "bad.lg"
        path.write_text("v 0 a\nv 2 b\n")
        with pytest.raises(GraphError, match="dense"):
            load_edge_list(path)

    def test_unknown_record(self, tmp_path):
        path = tmp_path / "bad.lg"
        path.write_text("x 1 2\n")
        with pytest.raises(GraphError, match="unknown record"):
            load_edge_list(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.lg"
        path.write_text("# comment\n\nv 0 a\nv 1 a\ne 0 1\n")
        g = load_edge_list(path)
        assert g.num_vertices == 2 and g.num_edges == 1

    def test_name_defaults_to_stem(self, graph, tmp_path):
        path = tmp_path / "mygraph.lg"
        dump_edge_list(graph, path)
        assert load_edge_list(path).name == "mygraph"


class TestJsonFormat:
    def test_roundtrip(self, graph, tmp_path):
        path = tmp_path / "g.json"
        dump_json(graph, path)
        loaded = load_json(path)
        assert list(loaded.labels) == list(graph.labels)
        assert set(loaded.edges()) == set(graph.edges())
        assert loaded.name == "tiny"

    def test_malformed_json_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(GraphError, match="not a graph JSON"):
            load_json(path)


    @pytest.mark.parametrize("entry", ["[0, 1, 2]", "[0]", "5"])
    def test_an_edge_entry_that_is_not_a_pair(self, entry, tmp_path):
        """Was (defect seventeen): ``[0, 1, 2]`` / ``[0]`` escaped the
        constructor as a bare ``ValueError``."""
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["a", "b", "c"], "edges": [[0, 1], %s]}' % entry)
        with pytest.raises(GraphError, match="pairs|not a graph JSON"):
            load_json(path)


class TestLoadQuery:
    def test_load_query_edge_list(self, tmp_path):
        path = tmp_path / "q.lg"
        dump_edge_list(LabeledGraph(["a", "b"], [(0, 1)]), path)
        q = load_query(path)
        assert isinstance(q, QueryGraph)

    def test_load_query_json(self, tmp_path):
        path = tmp_path / "q.json"
        dump_json(LabeledGraph(["a", "b"], [(0, 1)]), path)
        assert isinstance(load_query(path), QueryGraph)

    def test_load_query_rejects_disconnected(self, tmp_path):
        path = tmp_path / "q.json"
        dump_json(LabeledGraph(["a", "b"], []), path)
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            load_query(path)
