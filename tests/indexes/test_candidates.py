"""Unit tests for :mod:`repro.indexes.candidates`."""

from __future__ import annotations

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex

from tests.conftest import brute_force_embeddings, passes_filter_stack


@pytest.fixture()
def setting():
    graph = LabeledGraph(
        ["a", "b", "c", "a", "b", "b"],
        [(0, 1), (1, 2), (3, 4), (0, 5), (5, 2)],
    )
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    return graph, query


class TestConstruction:
    def test_candidates_filtered(self, setting):
        graph, query = setting
        idx = CandidateIndex(graph, query)
        # Node 1 ("b", degree 2) needs degree >= 2 and NS >= {a, c}:
        # v1 (deg 2, NS {a,c}) and v5 (deg 2, NS {a,c}) qualify; v4 does not.
        assert set(idx.candidates(1)) == {1, 5}

    def test_label_only_when_filters_disabled(self, setting):
        """There is no disabling them: the label filter alone would admit
        v4 for node 1, and no view of the query holds it."""
        graph, query = setting
        assert {v for v in range(graph.num_vertices) if graph.label(v) == "b"} == {1, 4, 5}
        with pytest.raises(TypeError):
            CandidateIndex(graph, query, use_degree_filter=False)
        for u in range(query.size):
            want = [v for v in range(graph.num_vertices) if passes_filter_stack(graph, query, u, v)]
            assert list(CandidateIndex(graph, query).candidates(u)) == want
        assert set(CandidateIndex(graph, query).candidates(1)) == {1, 5}

    def test_sizes(self, setting):
        graph, query = setting
        idx = CandidateIndex(graph, query)
        assert idx.size(1) == len(idx.candidates(1))
        assert idx.sizes() == [idx.size(u) for u in range(query.size)]

    def test_build_helper(self, setting):
        """``CandidateIndex(graph, query)`` is the constructor: it views the
        plan the graph's shared plan cache compiles."""
        graph, query = setting
        idx = CandidateIndex(graph, query)
        assert idx.cache is graph.index_cache()
        assert idx.plan is graph.index_cache().plan_cache.get_or_compile(query, idx.cache)


class TestMembership:
    def test_is_candidate(self, setting):
        graph, query = setting
        idx = CandidateIndex(graph, query)
        assert idx.is_candidate(1, 1)
        assert not idx.is_candidate(1, 4)

    def test_restricted(self, setting):
        graph, query = setting
        idx = CandidateIndex(graph, query)
        # candS(1) = {1, 5}, restricted to a father match's neighborhood:
        # N(v0) = {1, 5} keeps both, N(v3) = {4} keeps nothing.
        assert idx.localized(1, 0) == (1, 5)
        assert idx.localized(1, 3) == ()

    def test_any_empty_false(self, setting):
        graph, query = setting
        assert not CandidateIndex(graph, query).any_empty()

    def test_any_empty_true(self):
        graph = LabeledGraph(["a", "a"], [(0, 1)])
        query = QueryGraph(["a", "z"], [(0, 1)])
        assert CandidateIndex(graph, query).any_empty()

    def test_full_check_independent_of_filter_toggles(self, setting):
        """Membership *is* the full check: the pools are the label + degree
        + signature stack, every vertex, every node."""
        graph, query = setting
        idx = CandidateIndex(graph, query)
        assert not hasattr(idx, "full_check")
        # v4 carries node 1's label, and the full stack rejects it.
        assert not idx.is_candidate(1, 4) and idx.is_candidate(1, 1)
        for u in range(query.size):
            for v in range(graph.num_vertices):
                assert idx.is_candidate(u, v) == passes_filter_stack(graph, query, u, v), (u, v)
                assert (v in idx.candidate_set(u)) == idx.is_candidate(u, v)


class TestCompleteness:
    def test_candidates_cover_all_embeddings(self, setting):
        """Filters are sound: every true embedding vertex is a candidate."""
        graph, query = setting
        idx = CandidateIndex(graph, query)
        for mapping in brute_force_embeddings(graph, query):
            for u, v in enumerate(mapping):
                assert idx.is_candidate(u, v), (u, v)

    def test_candidates_cover_embeddings_random(self):
        from tests.conftest import connected_query_from, random_labeled_graph

        graph = random_labeled_graph(30, 3, 0.2, seed=7)
        query = connected_query_from(graph, 3, seed=1)
        idx = CandidateIndex(graph, query)
        for mapping in brute_force_embeddings(graph, query):
            for u, v in enumerate(mapping):
                assert idx.is_candidate(u, v)
