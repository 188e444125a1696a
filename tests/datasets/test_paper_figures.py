"""Unit tests for the Figure 3-5 fixtures themselves."""

from __future__ import annotations

from repro.datasets.paper_figures import figure3, figure4, figure5
from repro.indexes.candidates import CandidateIndex

from tests.conftest import brute_force_embeddings


class TestFigure3:
    def test_query_shape(self):
        _, query = figure3()
        assert query.size == 7
        assert query.degree(0) == 4  # the hub u1
        assert query.label(3) == query.label(6) == "d"

    def test_graph_hosts_an_embedding(self):
        graph, query = figure3()
        assert brute_force_embeddings(graph, query)

    def test_candidate_localization_sets(self):
        """Example 3: v1's neighbors by label match the paper's sets."""
        graph, query = figure3()
        v1 = 0
        by_label = {}
        for w in graph.neighbors(v1):
            by_label.setdefault(graph.label(w), set()).add(w)
        assert len(by_label["b"]) == 2  # {v2, v12}
        assert len(by_label["c"]) == 2  # {v3, v15}
        assert len(by_label["d"]) == 1  # {v4}
        assert len(by_label["e"]) == 1  # {v5}


class TestFigure4:
    def test_exactly_one_embedding(self):
        graph, query = figure4(width=20)
        embs = brute_force_embeddings(graph, query)
        # One completable region; the pendant e gives exactly one choice.
        assert len({frozenset(m) for m in embs}) == 1

    def test_width_scales_graph(self):
        small, _ = figure4(width=10)
        large, _ = figure4(width=50)
        assert large.num_vertices > small.num_vertices

    def test_fans_pass_static_filters(self):
        """The traps only work if the fan vertices survive candS filtering."""
        graph, query = figure4(width=20)
        idx = CandidateIndex(graph, query)
        # u1 (b) and u2 (c) must have fan-sized candidate pools.
        assert idx.size(1) >= 20
        assert idx.size(2) >= 20

    def test_decoy_not_a_root_candidate(self):
        graph, query = figure4(width=10)
        idx = CandidateIndex(graph, query)
        roots = idx.candidates(0)
        assert len(roots) == 2  # v1 and v6 only


class TestFigure5:
    def test_exactly_one_embedding(self):
        graph, query = figure5(width=12, teasers=6)
        embs = brute_force_embeddings(graph, query)
        assert len({frozenset(m) for m in embs}) == 1

    def test_fans_pass_static_filters(self):
        graph, query = figure5(width=12, teasers=6)
        idx = CandidateIndex(graph, query)
        assert idx.size(1) >= 12  # b-fan
        assert idx.size(2) >= 12  # c-fan
        assert idx.size(3) >= 6   # teaser d's

    def test_query_is_double_triangle_with_pendant(self):
        _, query = figure5()
        assert query.size == 5
        assert query.num_edges == 6
        assert query.degree(0) == 3  # a in both triangles
