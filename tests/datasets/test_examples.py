"""Unit tests for the paper's worked-example fixtures."""

from __future__ import annotations

from repro.datasets.examples import imdb_flavor
from repro.graph.validation import is_valid_embedding

from tests.conftest import brute_force_distinct_vertex_sets, brute_force_embeddings


class TestFigure1:
    def test_shape(self, fig1):
        graph, query = fig1
        assert graph.num_vertices == 12
        assert query.size == 4

    def test_paper_embeddings_present(self, fig1):
        graph, query = fig1
        for paper_emb in [(1, 5, 4, 10), (2, 6, 7, 12), (3, 8, 7, 12), (3, 8, 9, 12)]:
            mapping = tuple(v - 1 for v in paper_emb)
            assert is_valid_embedding(graph, query, mapping), paper_emb

    def test_two_disjoint_embeddings_exist(self, fig1):
        graph, query = fig1
        sets = brute_force_distinct_vertex_sets(graph, query)
        assert any(a.isdisjoint(b) for a in sets for b in sets if a != b)


class TestFigure2:
    def test_shape(self, fig2):
        graph, query = fig2
        assert graph.num_vertices == 17
        assert query.size == 3

    def test_traced_embeddings_present(self, fig2):
        """The six embeddings DSQL-P1 collects in Example 2 all exist.

        (The graph hosts a few more embeddings — e.g. (v1, v2, v15) — which
        DSQL never accepts because their vertices are consumed earlier; the
        DSQL-side trace equality is asserted in tests/core/test_phase1.py.)
        """
        graph, query = fig2
        got = brute_force_distinct_vertex_sets(graph, query)
        paper = {
            frozenset(v - 1 for v in s)
            for s in [{1, 2, 3}, {7, 8, 9}, {1, 5, 6}, {14, 2, 15}, {16, 17, 3}, {1, 8, 13}]
        }
        assert paper <= got


class TestImdbFlavor:
    def test_bipartite(self, imdb_small):
        graph, _ = imdb_small
        person = {"Actor", "Actress", "Director"}
        for u, v in graph.edges():
            assert (graph.label(u) in person) != (graph.label(v) in person)

    def test_query_has_matches(self, imdb_small):
        graph, query = imdb_small
        assert brute_force_embeddings(graph, query)

    def test_seeded_determinism(self):
        a = imdb_flavor(num_people=100, num_series=20, seed=1)[0]
        b = imdb_flavor(num_people=100, num_series=20, seed=1)[0]
        assert set(a.edges()) == set(b.edges())


class TestDbpediaFlavor:
    def test_labels(self, dbpedia_small):
        graph, query = dbpedia_small
        assert {"Politician", "Scientist", "Physicist"} <= graph.label_set()
        assert "Other" in graph.label_set()

    def test_query_has_matches(self, dbpedia_small):
        graph, query = dbpedia_small
        assert brute_force_embeddings(graph, query)

    def test_query_is_triangle(self, dbpedia_small):
        _, query = dbpedia_small
        assert query.size == 3 and query.num_edges == 3
