"""Property-based tests for the graph substrate."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder, relabel
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.statistics import compute_statistics, label_histogram


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(
        st.lists(st.sampled_from("abcd"), min_size=n, max_size=n)
    )
    max_edges = n * (n - 1) // 2
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=max_edges)) if all_pairs else []
    return LabeledGraph(labels, edges)


class TestGraphInvariants:
    @given(labeled_graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges

    @given(labeled_graphs())
    def test_edges_unique_normalized(self, g):
        edges = list(g.edges())
        assert len(edges) == len(set(edges)) == g.num_edges
        assert all(u < v for u, v in edges)

    @given(labeled_graphs())
    def test_adjacency_symmetric(self, g):
        for u, v in g.edges():
            assert u in g.neighbors(v) and v in g.neighbors(u)

    @given(labeled_graphs())
    def test_label_index_partition(self, g):
        idx = g.label_index()
        all_vertices = sorted(v for bucket in idx.values() for v in bucket)
        assert all_vertices == list(g.vertices())

    @given(labeled_graphs())
    def test_signature_matches_definition(self, g):
        for v in g.vertices():
            expected = frozenset(g.label(w) for w in g.neighbors(v))
            assert g.neighborhood_signature(v) == expected

    @given(labeled_graphs())
    def test_components_partition_vertices(self, g):
        comps = g.connected_components()
        flattened = sorted(v for comp in comps for v in comp)
        assert flattened == list(g.vertices())

    @given(labeled_graphs())
    def test_statistics_consistency(self, g):
        s = compute_statistics(g)
        assert s.num_vertices == g.num_vertices
        assert s.num_edges == g.num_edges
        assert sum(label_histogram(g).values()) == g.num_vertices

    @given(labeled_graphs())
    def test_induced_full_subgraph_is_identity(self, g):
        sub = g.induced_subgraph(g.vertices())
        assert list(sub.labels) == list(g.labels)
        assert set(sub.edges()) == set(g.edges())

    @given(labeled_graphs())
    def test_relabel_roundtrip(self, g):
        g2 = relabel(g, list(g.labels))
        assert set(g2.edges()) == set(g.edges())


class TestBuilderProperties:
    @given(st.lists(st.sampled_from("ab"), min_size=2, max_size=10), st.data())
    def test_builder_build_matches_inserts(self, labels, data):
        b = GraphBuilder()
        b.add_vertices(labels)
        n = len(labels)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        b.add_edges(chosen)
        g = b.build()
        assert g.num_edges == len(set(chosen))
        for u, v in chosen:
            assert g.has_edge(u, v)
