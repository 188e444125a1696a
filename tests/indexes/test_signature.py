"""The Section 4.2 filter stack — label, degree, neighbourhood signature —
as the product runs it: the mask scan behind
:meth:`~repro.indexes.graph_cache.GraphIndexCache.pool_entry`, read through
``candidate_pool`` one filter at a time and through
:class:`~repro.indexes.candidates.CandidateIndex` as a whole, and checked
against the ``passes_filter_stack`` oracle. Each test keeps the name of the
frozenset filter it once checked."""

from __future__ import annotations

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex

from tests.conftest import passes_filter_stack


@pytest.fixture()
def setting():
    # v0(a)-v1(b), v1-v2(c), v3(a) isolated-ish: v3-v4(b)
    graph = LabeledGraph(["a", "b", "c", "a", "b"], [(0, 1), (1, 2), (3, 4)])
    # query: a-b-c path
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    return graph, query


def admits(graph, query, u, v):
    """``v`` is in ``candS(u)``, and the oracle agrees."""
    got = CandidateIndex(graph, query).is_candidate(u, v)
    assert got == passes_filter_stack(graph, query, u, v), (u, v)
    return got


class TestIndividualFilters:
    def test_label_filter(self, setting):
        graph, _ = setting
        cache = graph.index_cache()
        assert cache.candidate_pool("a") == (0, 3)
        assert cache.candidate_pool("z") == ()

    def test_degree_filter(self, setting):
        graph, _ = setting
        # query node 1 ("b") has degree 2; v4 ("b") has degree 1.
        cache = graph.index_cache()
        assert cache.candidate_pool("b") == (1, 4)
        assert cache.candidate_pool("b", min_degree=2) == (1,)

    def test_signature_filter(self, setting):
        graph, query = setting
        # NS_Q(1) = {a, c}; NS(v1) = {a, c} ok; NS(v4) = {a} fails.
        cache = graph.index_cache()
        mask = cache.mask_for(query.neighborhood_signature(1))
        assert cache.candidate_pool("b", signature_mask=mask) == (1,)

    def test_query_signature(self, setting):
        _, query = setting
        assert query.neighborhood_signature(1) == frozenset({"a", "c"})
        assert query.neighborhood_signature(0) == frozenset({"b"})


class TestCombinedFilter:
    def test_all_pass(self, setting):
        graph, query = setting
        assert admits(graph, query, 1, 1)

    def test_label_short_circuits(self, setting):
        graph, query = setting
        assert not admits(graph, query, 0, 2)

    def test_degree_blocks(self, setting):
        graph, query = setting
        assert not admits(graph, query, 1, 4)

    def test_signature_blocks(self, setting):
        graph, query = setting
        # v3 ("a") neighbors only b; query node 0 needs NS containing {b}: ok.
        assert admits(graph, query, 0, 3)
        # But for a query whose "a" node needs {b, c}:
        q2 = QueryGraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
        assert not admits(graph, q2, 0, 3)

    def test_filters_are_necessary_conditions(self, setting):
        """Any true embedding vertex must pass all filters for its node."""
        graph, query = setting
        # (0, 1, 2) is an embedding of the path query.
        for u, v in enumerate((0, 1, 2)):
            assert admits(graph, query, u, v)
