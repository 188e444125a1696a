"""What a caller with graph data held elsewhere (a networkx graph, a dict of
keyed nodes) uses now that the networkx bridge is gone: keyed nodes go
through :class:`GraphBuilder`, whose dense ids the caller keeps beside its
own keys, and files through :mod:`repro.graph.io`. Each test keeps the name
of the converter case it replaced and pins the constructor behaviour that
took its place."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, QueryError
from repro.graph.builder import GraphBuilder, relabel
from repro.graph.io import dump_edge_list, dump_json, load_edge_list, load_json
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph

PEOPLE = {"alice": "a", "bob": "b", "carol": "b"}
KNOWS = [("alice", "bob"), ("bob", "carol")]


def build_keyed(nodes, edges):
    """``(graph, key_to_id)`` from ``{key: label}`` and key pairs, ids in
    insertion order."""
    builder = GraphBuilder()
    key_to_id = {key: builder.add_vertex(label) for key, label in nodes.items()}
    builder.add_edges((key_to_id[a], key_to_id[b]) for a, b in edges)
    return builder.build(), key_to_id


class TestFromNetworkx:
    def test_basic_conversion(self):
        graph, key_to_id = build_keyed(PEOPLE, KNOWS)
        assert key_to_id == {"alice": 0, "bob": 1, "carol": 2}
        assert (graph.num_vertices, graph.num_edges) == (3, 2)
        assert graph.label(key_to_id["alice"]) == "a"
        assert graph.has_edge(key_to_id["alice"], key_to_id["bob"])

    def test_missing_label_raises(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"edges": [[0, 1]]}', encoding="utf-8")
        with pytest.raises(GraphError, match="not a graph JSON object"):
            load_json(path)

    def test_default_label(self):
        graph = LabeledGraph(["x", "x"], [(0, 1)])
        assert list(relabel(graph, ["y", "z"]).labels) == ["y", "z"]
        with pytest.raises(GraphError, match="label table has 1 entries"):
            relabel(graph, ["y"])

    def test_custom_attribute(self):
        # A label is any hashable value, so a caller's attribute maps through.
        graph = LabeledGraph([7, ("genre", 3)], [(0, 1)])
        assert graph.label(1) == ("genre", 3)
        assert graph.vertices_with_label(7) == (0,)

    def test_directed_rejected(self, tmp_path):
        # A file written from a directed source may list both orientations:
        # they load as one undirected edge, and the header counts it once.
        body = "v 0 a\nv 1 b\ne 0 1\ne 1 0\n"
        (tmp_path / "one.lg").write_text("t 2 1\n" + body, encoding="utf-8")
        graph = load_edge_list(tmp_path / "one.lg")
        assert graph.num_edges == 1 and graph.has_edge(1, 0)
        (tmp_path / "two.lg").write_text("t 2 2\n" + body, encoding="utf-8")
        with pytest.raises(GraphError, match="declares 2 edges, found 1"):
            load_edge_list(tmp_path / "two.lg")

    def test_self_loop_dropped_or_strict(self, tmp_path):
        # Strict: a self-loop in a file fails the load in either format, and
        # a builder that rejected one keeps the edges it had.
        (tmp_path / "g.lg").write_text("v 0 a\ne 0 0\n", encoding="utf-8")
        (tmp_path / "g.json").write_text('{"labels": ["a"], "edges": [[0, 0]]}', encoding="utf-8")
        for load in (load_edge_list, load_json):
            with pytest.raises(GraphError, match="self-loop"):
                load(tmp_path / f"g.{'lg' if load is load_edge_list else 'json'}")
        builder = GraphBuilder()
        a, b = builder.add_vertex("a"), builder.add_vertex("b")
        builder.add_edge(a, b)
        with pytest.raises(GraphError):
            builder.add_edge(b, b)
        assert list(builder.build().edges()) == [(0, 1)]


class TestQueryFromNetworkx:
    def test_valid_query(self):
        graph, _ = build_keyed(PEOPLE, KNOWS)
        assert QueryGraph.from_graph(graph).size == 3

    def test_disconnected_rejected(self):
        graph, _ = build_keyed({1: "a", 2: "b"}, [])
        with pytest.raises(QueryError):
            QueryGraph.from_graph(graph)


class TestToNetworkx:
    def test_roundtrip(self, tmp_path):
        # A caller's integer labels survive JSON as integers; the edge-list
        # format reads every label back as a string.
        original = LabeledGraph([7, 3, 7], [(0, 1), (1, 2)], name="g")
        dump_json(original, tmp_path / "g.json")
        dump_edge_list(original, tmp_path / "g.lg")
        assert list(load_json(tmp_path / "g.json").labels) == [7, 3, 7]
        assert list(load_edge_list(tmp_path / "g.lg").labels) == ["7", "3", "7"]

    def test_label_attribute(self, tmp_path):
        dump_edge_list(LabeledGraph(["z", "y"], [(0, 1)]), tmp_path / "g.lg")
        back = load_edge_list(tmp_path / "g.lg")
        assert list(back.labels) == ["z", "y"] and back.has_edge(0, 1)


class TestEndToEnd:
    def test_diversified_search_through_networkx(self):
        """A caller's full path from keyed data: build, query, map back."""
        from repro import diversified_search

        team = {"pm1": "a", "pm2": "a", "dev1": "b", "dev2": "b"}
        graph, key_to_id = build_keyed(team, [("pm1", "dev1"), ("pm2", "dev2")])
        query = QueryGraph(["a", "b"], [(0, 1)])
        result = diversified_search(graph, query, k=2)
        assert result.coverage == 4
        keys = list(key_to_id)  # ids are insertion order
        names = {tuple(keys[v] for v in emb) for emb in result.embeddings}
        assert names == {("pm1", "dev1"), ("pm2", "dev2")}
