"""Tests for the shared per-graph index cache (repro.indexes.graph_cache)."""

from __future__ import annotations

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.indexes.graph_cache import GraphIndexCache
from tests.conftest import in_storage_state

LABELS = ["a", "b", "b", "a", "c"]
EDGES = [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)]


@pytest.fixture()
def graph():
    return LabeledGraph(LABELS, EDGES)


@pytest.fixture()
def cache(graph):
    return graph.index_cache()


def test_cache_is_pinned(graph):
    assert graph.index_cache() is graph.index_cache()
    assert GraphIndexCache.for_graph(graph) is graph.index_cache()


def test_label_index(cache):
    assert cache.label_index == {"a": (0, 3), "b": (1, 2), "c": (4,)}
    assert cache.vertices_with_label("b") == (1, 2)
    assert cache.vertices_with_label("nope") == ()


def test_label_ids(cache):
    assert cache.label_id("a") == 0
    assert cache.label_id("c") == 2
    assert cache.label_id("nope") is None


def test_signatures(cache):
    assert cache.signature(0) == frozenset({"b"})
    assert cache.signature(1) == frozenset({"a", "b"})
    assert cache.signature(4) == frozenset({"a"})
    # Equal signatures are interned to one object.
    same = [v for v in range(5) if cache.signature_mask(v) == cache.signature_mask(0)]
    for v in same:
        assert cache.signature(v) is cache.signature(0)


def test_no_frozenset_built_until_signature_is_read(graph, monkeypatch):
    """Build and delta repair keep masks only; the frozenset view is on call."""
    import repro.indexes.graph_cache as mod

    built = []
    monkeypatch.setattr(
        mod, "frozenset", lambda it=(): built.append(1) or frozenset(it), raising=False
    )
    cache = graph.index_cache()
    graph.mutate([("add_vertex", "a"), ("add_edge", 5, 4), ("remove_edge", 0, 1)])
    assert built == []
    assert cache.signature(5) == frozenset({"c"}) and cache.signature(0) == frozenset({"b"})
    assert cache.signature(1) is cache.signature(2)  # equal masks, one object
    assert len(built) == 3


def test_signature_masks_match_frozensets(cache):
    for v in range(5):
        labels = {cache.label_table[lid] for lid in range(3) if cache.signature_mask(v) >> lid & 1}
        assert labels == set(cache.signature(v))


def test_mask_for(cache):
    assert cache.mask_for([]) == 0
    assert cache.mask_for(["a"]) == 1
    assert cache.mask_for(["a", "b"]) == 3
    assert cache.mask_for(["a", "zzz"]) is None


def test_candidate_pool_filters(cache):
    assert cache.candidate_pool("b") == (1, 2)
    assert cache.candidate_pool("b", min_degree=3) == (1,)
    mask_c = cache.mask_for(["c"])
    # Only vertex 3 has a neighbor labeled "c".
    assert cache.candidate_pool("a", signature_mask=mask_c) == (3,)
    assert cache.candidate_pool("missing") == ()


def test_candidate_pool_memoized(cache):
    before = cache.memo_info()
    p1 = cache.candidate_pool("b", min_degree=2)
    p2 = cache.candidate_pool("b", min_degree=2)
    assert p1 is p2
    after = cache.memo_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"] + 1


def test_memo_lru_eviction(graph):
    cache = GraphIndexCache(graph, candidate_memo_size=2)
    cache.candidate_pool("a", min_degree=1)
    cache.candidate_pool("a", min_degree=2)
    cache.candidate_pool("a", min_degree=3)  # evicts min_degree=1
    assert cache.memo_info()["size"] == 2
    cache.candidate_pool("a", min_degree=1)  # miss again
    assert cache.candidate_memo_hits == 0
    assert cache.candidate_memo_misses == 4


def test_memo_disabled(graph):
    cache = GraphIndexCache(graph, candidate_memo_size=0)
    cache.candidate_pool("a")
    cache.candidate_pool("a")
    info = cache.memo_info()
    assert (info["hits"], info["misses"], info["size"]) == (0, 2, 0)


def test_cache_agrees_across_backends(graph):
    """A cache built over overlay-resident rows equals one over the frozen base."""
    other = in_storage_state(graph, "set").index_cache()
    mine = graph.index_cache()
    assert other.label_index == mine.label_index
    assert other.signature_masks == mine.signature_masks
    assert [other.signature(v) for v in range(5)] == [mine.signature(v) for v in range(5)]
    assert other.candidate_pool("b", min_degree=2) == mine.candidate_pool("b", min_degree=2)
