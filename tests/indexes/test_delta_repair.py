"""Delta-based repair of :class:`GraphIndexCache` under live mutation.

The keystone invariant: after any mutation sequence, every queryable
structure of the delta-repaired cache — label index, NS signatures,
degrees, candidate pools — must equal what a cache *built from scratch*
over the mutated graph holds. The repair is allowed to differ only in
bookkeeping (epoch identity, mutation log, memo warmth), never in
answers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.indexes.graph_cache import GraphIndexCache
from tests.conftest import STORAGE_STATES, build_graph


def small_graph(storage: str = "csr") -> LabeledGraph:
    return build_graph(
        ["a", "b", "b", "c", "a", "c"],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        storage=storage,
    )


def assert_cache_equivalent(repaired: GraphIndexCache, fresh: GraphIndexCache) -> None:
    assert repaired.label_index == fresh.label_index
    assert repaired.signature_masks == fresh.signature_masks
    assert [repaired.signature(v) for v in range(len(fresh.degrees))] == [
        fresh.signature(v) for v in range(len(fresh.degrees))
    ]
    assert repaired.degrees == fresh.degrees
    assert np.array_equal(repaired.degree_array, fresh.degree_array)
    assert repaired.label_table == fresh.label_table
    assert repaired.label_to_id == fresh.label_to_id


@pytest.mark.parametrize("storage", STORAGE_STATES)
class TestDeltaRepairEquivalence:
    def test_single_edge_ops(self, storage):
        g = small_graph(storage)
        cache = g.index_cache()
        g.add_edge(0, 3)
        g.remove_edge(1, 2)
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_add_vertex_repairs_label_index(self, storage):
        g = small_graph(storage)
        cache = g.index_cache()
        v = g.add_vertex("b")
        assert v in cache.label_index["b"]
        assert cache.signature(v) == frozenset()
        w = g.add_vertex("zz")  # brand-new label
        assert cache.label_index["zz"] == (w,)
        g.add_edge(v, w)
        assert cache.signature(v) == frozenset({"zz"})
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_random_mutation_script(self, storage):
        g = small_graph(storage)
        cache = g.index_cache()
        rng = random.Random(23)
        labels = ["a", "b", "c", "d"]
        for _ in range(120):
            r = rng.random()
            n = g.num_vertices
            if r < 0.15:
                g.add_vertex(rng.choice(labels))
            elif r < 0.6:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.remove_edge(u, v)
        assert_cache_equivalent(cache, GraphIndexCache(g))


class TestTargetedInvalidation:
    def test_pool_memo_evicts_only_dirty_labels(self):
        g = small_graph()
        cache = g.index_cache()
        lid_a = cache.label_id("a")
        lid_c = cache.label_id("c")
        # Warm two pools: one over 'a', one over 'c'.
        pool_a = cache.candidate_pool("a", 1)
        pool_c = cache.candidate_pool("c", 1)
        assert pool_a and pool_c
        keys = set(cache._pool_memo)
        assert any(k[0] == lid_a for k in keys) and any(k[0] == lid_c for k in keys)
        # Mutating an edge between two 'a'/'b' vertices leaves 'c' pools warm.
        g.add_edge(0, 2)  # labels 'a' and 'b'
        keys_after = set(cache._pool_memo)
        assert all(k[0] != lid_a for k in keys_after)
        assert any(k[0] == lid_c for k in keys_after)

    def test_adjacency_masks_evict_only_touched_vertices(self):
        g = small_graph()
        cache = g.index_cache()
        m3 = cache.adjacency_mask(3)
        m0 = cache.adjacency_mask(0)
        assert m3 and m0
        g.add_edge(0, 2)
        assert 0 not in cache._adj_masks and 2 not in cache._adj_masks
        assert cache._adj_masks.get(3) == m3
        # Recomputed mask reflects the new edge.
        assert cache.adjacency_mask(0) == m0 | (1 << 2)

    def test_plan_cache_evicts_only_intersecting_plans(self):
        from repro.indexes.plans import PlanCache

        cache = PlanCache()

        class _Plan:
            def __init__(self, lids, absent):
                self.referenced_lids = frozenset(lids)
                self.absent_labels = frozenset(absent)

        with cache._lock:
            cache._memo["p1"] = _Plan({0, 1}, ())
            cache._memo["p2"] = _Plan({2}, ())
            cache._memo["p3"] = _Plan({2}, {"zz"})
        assert cache.evict_stale(frozenset({1}), ()) == 1
        assert set(cache._memo) == {"p2", "p3"}
        assert cache.evict_stale(frozenset(), {"zz"}) == 1
        assert set(cache._memo) == {"p2"}
        assert cache.evict_stale(frozenset(), ()) == 0


class TestVersionAndLog:
    def test_ops_since_returns_contiguous_tail(self):
        g = small_graph()
        cache = g.index_cache()
        g.add_edge(0, 3)
        g.add_edge(1, 4)
        g.remove_edge(0, 3)
        tail = cache.ops_since(1)
        assert [seq for seq, _ in tail] == [2, 3]
        assert tail[0][1] == ("add_edge", 1, 4)
        assert cache.ops_since(3) == ()

    def test_on_compaction_resets_log_and_epoch(self):
        g = small_graph()
        cache = g.index_cache()
        g.add_edge(0, 3)
        epoch0 = cache.epoch
        g.compact()
        assert cache.epoch != epoch0
        assert cache.delta_seq == 0
        assert cache.ops_since(0) == ()
        assert cache.plan_cache.info()["size"] == 0

    def test_memo_keys_change_with_version(self):
        from repro.core.config import DSQLConfig
        from repro.core.dsql import DSQL
        from repro.graph.query_graph import QueryGraph

        g = small_graph()
        session = DSQL(g, config=DSQLConfig(k=2))
        q = QueryGraph(["a", "b"], [(0, 1)])
        key0 = session.memo_key(q)
        g.add_edge(0, 3)
        key1 = session.memo_key(q)
        assert key0 != key1
        g.compact()
        assert session.memo_key(q) not in (key0, key1)
