"""Delta-based repair of :class:`GraphIndexCache` under live mutation.

The keystone invariant: after any mutation sequence, every queryable
structure of the delta-repaired cache — label index, NS signatures,
degrees, candidate pools — must equal what a cache *built from scratch*
over the mutated graph holds. The repair is allowed to differ only in
bookkeeping (epoch identity, mutation log, memo warmth), never in
answers. The candidate-pool memo is repaired in place, so the invariant
covers every entry it holds: each must be exactly what a scan of its key
finds on the mutated graph.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.indexes.plans import compile_plan
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, assert_arrays_match_rebuild, build_graph


def small_graph(storage: str = "csr") -> LabeledGraph:
    return build_graph(
        ["a", "b", "b", "c", "a", "c"],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        storage=storage,
    )


def banded_graph(storage: str = "csr") -> LabeledGraph:
    """90 vertices, labels a/b/c in turn, a ring plus seeded chords.

    Buckets of 30 are large enough that a one-edge delta is repaired in
    place rather than taken for a bulk batch (see ``_repairable_labels``).
    """
    rng = random.Random(5)
    n = 90
    edges = {(v, (v + 1) % n) for v in range(n)}
    while len(edges) < 150:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return build_graph(["abc"[v % 3] for v in range(n)], sorted(edges), storage=storage)


def warm_pool_spread(cache: GraphIndexCache, labels=None) -> None:
    """Memoize, for each label, min_degree 0-3 x {no mask, each single label bit},
    and prime each entry's degree mass, so the writes that follow have one to repair."""
    bits = [0] + [1 << lid for lid in range(len(cache.label_table))]
    for label in labels or list(cache.label_table):
        for min_degree in range(4):
            for mask in bits:
                pool = cache.candidate_pool(label, min_degree, mask)
                cache.pool_degree_mass(label, min_degree, mask, pool)


def run_mutation_script(g: LabeledGraph) -> GraphIndexCache:
    """120 seeded ops over a memo re-warmed every tenth; equivalence checked after each."""
    cache = g.index_cache()
    rng = random.Random(23)
    masses_held = 0
    labels = ["a", "b", "c", "d"]
    for step in range(120):
        if step % 10 == 0:
            # All labels at first, then 'a'/'b' x every bit there is by now,
            # the bit of 'd' included once the script has introduced it.
            warm_pool_spread(cache, labels=["a", "b"] if step else None)
            assert_cache_equivalent(cache, GraphIndexCache(g))
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
        masses_held += len(kept_masses(cache))
    assert masses_held  # or the mass assertions held nothing a write had touched
    return cache


def kept_masses(cache: GraphIndexCache) -> dict:
    """``{memo key: degree mass}`` for the entries whose mass has been asked for."""
    return {
        key: mass
        for row in cache._pool_keys.values()
        for key, mass in row.items()
        if mass is not None
    }


def assert_cache_equivalent(repaired: GraphIndexCache, fresh: GraphIndexCache) -> None:
    assert repaired.label_index == fresh.label_index
    assert repaired.signature_masks == fresh.signature_masks
    assert [repaired.signature(v) for v in range(len(fresh.degrees))] == [
        fresh.signature(v) for v in range(len(fresh.degrees))
    ]
    assert repaired.degrees == fresh.degrees == repaired.graph.degree_sequence()
    assert repaired.label_table == fresh.label_table
    assert repaired.label_to_id == fresh.label_to_id
    # Every memoized pool is exactly what a scan of its key finds now.
    for key, pool in repaired._pool_memo.items():
        assert pool == fresh._scan(*key), key
        assert all(a < b for a, b in zip(pool, pool[1:])), key
    indexed = [key for keys in repaired._pool_keys.values() for key in keys]
    assert sorted(indexed) == sorted(repaired._pool_memo)
    # Every degree mass kept is its pool's, and none outlives its entry.
    masses = kept_masses(repaired)
    assert masses.keys() <= repaired._pool_memo.keys()
    for key, mass in masses.items():
        assert mass == sum(fresh.degrees[v] for v in repaired._pool_memo[key]), key
    # The storage the cache was repaired over is what a from-scratch
    # rebuild holds: rows, and the hash sets the localized search
    # intersects are the rows, as sets.
    assert_arrays_match_rebuild(repaired.graph)


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
        # Two-vertex buckets: nearly every delta is a bulk one for its label.
        cache = run_mutation_script(small_graph(storage))
        assert cache.memo_info()["dropped"] > 0

    def test_random_mutation_script_repaired_in_place(self, storage):
        # Thirty-vertex buckets: nearly every delta is repaired.
        cache = run_mutation_script(banded_graph(storage))
        assert cache.memo_info()["rebuilt"] > 0


class TestPoolRepair:
    """The candidate-pool memo after a delta: which tuples change, which survive."""

    @staticmethod
    def star_graph() -> LabeledGraph:
        """24 'a' hubs-to-be (0-23), 24 'b' (24-47), 24 'c' (48-71).

        Vertex 0 has one 'b' and one 'c' neighbour, vertex 1 one 'b' and two
        'c'; every other 'a' is isolated.
        """
        labels = ["a"] * 24 + ["b"] * 24 + ["c"] * 24
        return LabeledGraph(labels, [(0, 24), (0, 48), (1, 25), (1, 48), (1, 49)])

    def test_isolated_new_vertex_joins_the_unfiltered_pool(self):
        g = self.star_graph()
        cache = g.index_cache()
        unfiltered = cache.candidate_pool("a")
        with_degree = cache.candidate_pool("a", 1)
        assert unfiltered is cache.label_index["a"]
        v = g.add_vertex("a")
        assert cache._pool_memo[(cache.label_id("a"), 0, 0)] is cache.label_index["a"]
        assert cache.candidate_pool("a")[-1] == v
        assert cache.candidate_pool("a", 1) is with_degree
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_new_vertex_with_edges_in_one_batch(self):
        g = self.star_graph()
        cache = g.index_cache()
        warm_pool_spread(cache, labels=["a"])
        g.mutate([("add_vertex", "a"), ("add_edge", 72, 24), ("add_edge", 72, 30)])
        assert 72 in cache.candidate_pool("a", 2, cache.mask_for(["b"]))
        assert 72 not in cache.candidate_pool("a", 1, cache.mask_for(["c"]))
        assert cache.memo_info()["dropped"] == 0
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_degree_crossing_min_degree_both_ways(self):
        g = self.star_graph()
        cache = g.index_cache()
        assert cache.candidate_pool("a", 3) == (1,)
        before = cache.memo_info()["rebuilt"]
        g.add_edge(0, 26)
        assert cache._pool_memo[(cache.label_id("a"), 3, 0)] == (0, 1)
        g.remove_edge(0, 26)
        assert cache._pool_memo[(cache.label_id("a"), 3, 0)] == (1,)
        assert cache.memo_info()["rebuilt"] == before + 2
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_signature_bit_lost_with_the_last_neighbour_of_a_label(self):
        g = self.star_graph()
        cache = g.index_cache()
        mask_c = cache.mask_for(["c"])
        pool = cache.candidate_pool("a", 0, mask_c)
        assert pool == (0, 1)
        g.remove_edge(1, 49)  # vertex 1 keeps a 'c' neighbour: nothing flips
        assert cache.candidate_pool("a", 0, mask_c) is pool
        g.remove_edge(0, 48)  # vertex 0 loses its only one
        assert cache._pool_memo[(cache.label_id("a"), 0, mask_c)] == (1,)
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_add_then_remove_in_one_batch_rebuilds_nothing(self):
        g = self.star_graph()
        cache = g.index_cache()
        warm_pool_spread(cache, labels=["a", "b"])
        pools = dict(cache._pool_memo)
        before = cache.memo_info()
        g.mutate([("add_edge", 2, 30), ("remove_edge", 2, 30)], compaction_threshold=None)
        assert all(cache._pool_memo[key] is pool for key, pool in pools.items())
        after = cache.memo_info()
        assert (after["rebuilt"], after["dropped"]) == (before["rebuilt"], before["dropped"])
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_repair_at_the_lru_cap_keeps_order_and_index(self):
        g = self.star_graph()
        cache = g._cache = GraphIndexCache(g, candidate_memo_size=4)
        for min_degree in range(3):
            cache.candidate_pool("a", min_degree)
            cache.candidate_pool("b", min_degree)
        order = list(cache._pool_memo)
        assert len(order) == 4
        g.add_edge(2, 30)  # 'a' and 'b' vertices both reach degree 1
        assert list(cache._pool_memo) == order
        assert_cache_equivalent(cache, GraphIndexCache(g))
        cache.candidate_pool("c", 1)  # pops the oldest entry and its index row
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_masses_never_outlive_their_entries_at_the_lru_cap(self):
        g = banded_graph()
        cache = g._cache = GraphIndexCache(g, candidate_memo_size=4)
        rng = random.Random(3)
        for step in range(60):
            label, min_degree = rng.choice("abc"), rng.randrange(4)
            pool = cache.candidate_pool(label, min_degree)  # evicts the oldest of four
            assert cache.pool_degree_mass(label, min_degree, 0, pool) == sum(map(g.degree, pool))
            u, v = rng.sample(range(g.num_vertices), 2)
            g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
            assert len(cache._pool_memo) <= 4
            assert_cache_equivalent(cache, GraphIndexCache(g))
        assert kept_masses(cache)

    def test_a_pool_that_is_not_the_memos_is_summed_and_nothing_is_kept(self):
        g = self.star_graph()
        cache = g.index_cache()
        pool = cache.candidate_pool("a", 1)
        before = cache.memo_info()
        assert cache.pool_degree_mass("a", 1, 0, tuple(list(pool))) == 5  # equal, not the entry
        assert not kept_masses(cache)
        assert cache.pool_degree_mass("a", 1, 0, pool) == 5
        assert kept_masses(cache) == {(cache.label_id("a"), 1, 0): 5}
        g.add_edge(0, 26)  # vertex 0 stays a member; only its degree moves
        assert cache.candidate_pool("a", 1) is pool
        assert kept_masses(cache) == {(cache.label_id("a"), 1, 0): 6}
        off = GraphIndexCache(g, candidate_memo_size=0)
        assert off.pool_degree_mass("a", 1, 0, off.candidate_pool("a", 1)) == 6
        assert not kept_masses(off)
        # Asking for a mass is not a pool-memo lookup.
        after = cache.memo_info()
        assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])

    def test_bulk_batch_drops_the_labels_entries(self):
        g = self.star_graph()
        cache = g.index_cache()
        warm_pool_spread(cache, labels=["a", "c"])
        lid_a, lid_c = cache.label_id("a"), cache.label_id("c")
        c_pools = {k: p for k, p in cache._pool_memo.items() if k[0] == lid_c}
        # Four 'a' endpoints x 16 'a' entries > the 24-vertex 'a' bucket.
        g.mutate([("add_edge", 2, 3), ("add_edge", 4, 5)], compaction_threshold=None)
        assert all(k[0] != lid_a for k in cache._pool_memo)
        assert lid_a not in cache._pool_keys
        assert all(cache._pool_memo[k] is p for k, p in c_pools.items())
        assert cache.memo_info()["dropped"] == 16
        assert cache.candidate_pool("a", 1) == (0, 1, 2, 3, 4, 5)
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_counters_are_mirrored_into_an_attached_registry(self):
        from repro.observability import MetricsRegistry

        g = self.star_graph()
        cache = g.index_cache()
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        cache.candidate_pool("a", 3)
        g.add_edge(0, 26)
        warm_pool_spread(cache, labels=["a"])
        g.mutate([("add_edge", 2, 3), ("add_edge", 4, 5)], compaction_threshold=None)
        info = cache.memo_info()
        snapshot = registry.snapshot()
        for name in ("repaired", "rebuilt", "dropped"):
            assert info[name] > 0
            assert snapshot["cache.pool." + name] == info[name]


@pytest.mark.parametrize(
    "churn, path", [(0.01, "dropped"), (8, "rebuilt")], ids=["churn-1pct", "ingest-8"]
)
def test_repair_reads_delta_sized_rows(churn, path, monkeypatch):
    """A write reads the rows it touched, a rebuild reads them all.

    The dblp stand-in (9.5k vertices) with the pool memo a served graph has.
    A 1 % edge-churn batch dirties every label and takes the bulk path; an
    8-edge ingest is repaired in place and leaves one label clean. Either way
    every memo entry of a dirty label is accounted for and a clean label's
    tuples are not so much as copied.
    """
    graph = make_dataset("dblp", scale=0.03, seed=2016)
    cache = graph.index_cache()
    for query in query_set(graph, 4, 80, seed=2016):
        compile_plan(query, cache)
    entries = dict(cache._pool_memo)
    assert len(entries) >= 200

    rng = random.Random(2016)
    ops = churn if churn >= 1 else int(graph.num_edges * churn)
    edges = list(graph.edges())
    rng.shuffle(edges)
    script = [("remove_edge", u, v) for u, v in edges[: ops // 2]]
    while len(script) < ops:
        u, v = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
        if u != v and not graph.has_edge(u, v) and ("add_edge", u, v) not in script:
            script.append(("add_edge", u, v))
    dirty = {v for op in script for v in op[1:]}
    dirty_lids = {cache.label_ids[v] for v in dirty}
    before = cache.memo_info()

    rows = []
    with monkeypatch.context() as patch:
        patch.setattr(
            LabeledGraph, "neighbors", lambda self, v: rows.append(v) or self._rows[v]
        )
        graph.mutate(script, compaction_threshold=None)
        repair_rows = len(rows)
        fresh = GraphIndexCache(graph)
        rebuild_rows = len(rows) - repair_rows

    assert repair_rows <= len(dirty)
    assert rebuild_rows >= 5 * repair_rows
    delta = {name: cache.memo_info()[name] - before[name] for name in before}
    assert delta[path] > 0
    assert delta["repaired"] + delta["dropped"] == sum(key[0] in dirty_lids for key in entries)
    assert delta["rebuilt"] <= delta["repaired"]
    clean = [key for key in entries if key[0] not in dirty_lids]
    assert clean or path == "dropped"
    assert all(cache._pool_memo[key] is entries[key] for key in clean)
    assert_cache_equivalent(cache, fresh)


class TestTargetedInvalidation:
    def test_pool_memo_evicts_only_dirty_labels(self):
        """Nothing, in fact: dirty labels' pools are repaired, clean ones untouched."""
        g = small_graph()
        cache = g.index_cache()
        pool_c = cache.candidate_pool("c", 1)
        assert cache.candidate_pool("a", 1) and cache.candidate_pool("b", 3) == ()
        keys = list(cache._pool_memo)
        g.add_edge(0, 2)  # labels 'a' and 'b'; vertex 2 reaches degree 3
        assert list(cache._pool_memo) == keys
        assert cache.candidate_pool("c", 1) is pool_c
        fresh = GraphIndexCache(g)
        for key in keys:
            assert cache._pool_memo[key] == fresh._scan(*key)
        assert cache._pool_memo[(cache.label_id("b"), 3, 0)] == (2,)

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
        """The id keeps its name; what a checkpoint does became: the log is
        empty, the epoch and ``delta_seq`` are not reset, the plans stay, and
        a reader below the log's floor is refused instead of handed a
        clamped tail."""
        from repro.core.dsql import DSQL
        from repro.exceptions import StaleSegmentError
        from repro.graph.query_graph import QueryGraph

        g = small_graph()
        cache = g.index_cache()
        g.add_edge(0, 3)
        g.add_edge(1, 4)
        DSQL(g, k=2).query(QueryGraph(["a", "b"], [(0, 1)]))
        plans, size = cache.plan_cache, cache.plan_cache.info()["size"]
        assert size > 0 and cache.log_floor == 0
        version = cache.version
        g.compact()
        assert cache.version == version == (cache.epoch, 2)
        assert cache._mutation_log == [] and cache.log_floor == 2
        assert cache.plan_cache is plans and plans.info()["size"] == size
        assert cache.ops_since(2) == ()
        for behind in (0, 1):
            with pytest.raises(StaleSegmentError, match="behind the mutation log"):
                cache.ops_since(behind)
        # At the floor the tail is whole again, and still refused below it.
        g.remove_edge(0, 3)
        assert cache.log_floor == 2
        assert cache.ops_since(2) == ((3, ("remove_edge", 0, 3)),)
        assert cache.ops_since(3) == ()
        with pytest.raises(StaleSegmentError):
            cache.ops_since(1)

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
        # Every applied delta changes the key; a checkpoint, which changes
        # no answer, does not.
        g.compact()
        assert session.memo_key(q) == key1
        g.remove_edge(0, 3)
        assert session.memo_key(q) not in (key0, key1)
