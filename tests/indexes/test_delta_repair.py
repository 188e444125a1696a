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

import pickle
import random
import sys
import threading
import time

import pytest

from repro.cost.estimator import raw_cost_profile
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import GraphIndexCache, PoolEntry
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
    and prime each entry's degree mass, set view and localized lists (one per
    vertex), so the writes that follow have one of each to repair or drop."""
    bits = [0] + [1 << lid for lid in range(len(cache.label_table))]
    for label in labels or list(cache.label_table):
        for min_degree in range(4):
            for mask in bits:
                entry = cache.pool_entry(label, min_degree, mask)
                cache.degree_mass(entry)
                members = entry.set_view()
                _, (lists,) = cache.entry_lists([entry])
                for fv in range(len(cache.degrees)):
                    lists[fv] = row_filter(cache.graph, fv, members)


def row_filter(graph: LabeledGraph, fv: int, members) -> tuple:
    """``N(fv) ∩ members`` in row order: what a kept localized list must be."""
    members = set(members)
    return tuple(w for w in graph.neighbors(fv) if w in members)


def run_mutation_script(g: LabeledGraph) -> GraphIndexCache:
    """120 seeded ops over a memo re-warmed every tenth; equivalence checked after each."""
    cache = g.index_cache()
    rng = random.Random(23)
    masses_held = views_held = lists_held = 0
    labels = ["a", "b", "c", "d"]
    for step in range(120):
        if step % 10 == 0:
            # All labels at first, then 'a'/'b' x every bit there is by now,
            # the bit of 'd' included once the script has introduced it.
            warm_pool_spread(cache, labels=["a", "b"] if step else None)
            assert_cache_equivalent(cache, GraphIndexCache(g))
        held = list(cache._pool_memo.values())
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
        assert_cache_equivalent(cache, GraphIndexCache(g), held)
        entries = list(cache._pool_memo.values())
        masses_held += sum(entry.mass is not None for entry in entries)
        views_held += sum(entry.view is not None for entry in entries)
        lists_held += sum(len(entry.lists) for entry in entries)
    # Or the mass, view and list assertions held nothing a write had touched.
    assert masses_held and views_held and lists_held
    return cache


def kept_masses(cache: GraphIndexCache) -> dict:
    """``{memo key: degree mass}`` for the entries whose mass has been asked for."""
    return {key: entry.mass for key, entry in cache._pool_memo.items() if entry.mass is not None}


def assert_cache_equivalent(repaired: GraphIndexCache, fresh: GraphIndexCache, held=()) -> None:
    """``repaired`` answers as ``fresh`` does, and of the entries its plans
    and ``held`` hold, every one the memo no longer holds is retired."""
    assert repaired.label_index == fresh.label_index
    assert repaired.signature_masks == fresh.signature_masks
    assert [repaired.signature(v) for v in range(len(fresh.degrees))] == [
        fresh.signature(v) for v in range(len(fresh.degrees))
    ]
    assert repaired.degrees == fresh.degrees == repaired.graph.degree_sequence()
    assert repaired.label_table == fresh.label_table
    assert repaired.label_to_id == fresh.label_to_id
    # Every memoized entry holds exactly what a scan of its key finds now,
    # and what it keeps is derived from those members as the graph is now:
    # a kept degree mass, a built set view, and every localized list.
    for key, entry in repaired._pool_memo.items():
        members = entry.members
        assert members == fresh._scan(*key), key
        assert all(a < b for a, b in zip(members, members[1:])), key
        if entry.mass is not None:
            assert entry.mass == sum(fresh.degrees[v] for v in members), key
        if entry.view is not None:
            assert entry.view == frozenset(members), key
        for fv, hit in entry.lists.items():
            assert hit == row_filter(fresh.graph, fv, members), (key, fv)
    indexed = [key for keys in repaired._pool_keys.values() for key in keys]
    assert sorted(indexed) == sorted(repaired._pool_memo)
    # No entry outside the memo keeps a mass or lists; it may keep its view.
    live = {id(entry) for entry in repaired._pool_memo.values()}
    planned = [e for plan in list(repaired.plan_cache._memo.values()) for e in plan.entries]
    for entry in [*planned, *held]:
        if id(entry) not in live:
            assert entry.mass is None and entry.lists is None, entry.members
            assert entry.view in (None, frozenset(entry.members)), entry.members
    # Every interned signature is its mask's labels.
    for mask, labels in repaired._mask_signatures.items():
        assert labels == {lab for lid, lab in enumerate(fresh.label_table) if mask >> lid & 1}
    # Every plan kept is what compiling its key finds now, and a kept cost
    # profile is the plan's price now.
    for key, plan in list(repaired.plan_cache._memo.items()):
        _, (labels, edges) = key
        want = compile_plan(QueryGraph(list(labels), [tuple(e) for e in edges]), fresh)
        assert plan.pools == want.pools, key
        assert plan._cost_profile in (None, raw_cost_profile(want, fresh)), key
    # A kept twin partition is one of the graph as it is.
    if repaired._compressed is not None:
        graph = repaired.graph
        for cid, members in enumerate(repaired._compressed.classes):
            assert all(repaired._compressed.class_of[v] == cid for v in members), cid
            for v, w in zip(members, members[1:]):
                assert graph.label(v) == graph.label(w), (v, w)
                assert graph.neighbor_set(v) - {w} == graph.neighbor_set(w) - {v}, (v, w)
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
        assert cache._pool_memo[(cache.label_id("a"), 0, 0)].members is cache.label_index["a"]
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
        assert cache._pool_memo[(cache.label_id("a"), 3, 0)].members == (0, 1)
        g.remove_edge(0, 26)
        assert cache._pool_memo[(cache.label_id("a"), 3, 0)].members == (1,)
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
        assert cache._pool_memo[(cache.label_id("a"), 0, mask_c)].members == (1,)
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
            entry = cache.pool_entry(label, min_degree)  # evicts the oldest of four
            assert cache.degree_mass(entry) == sum(map(g.degree, entry.members))
            u, v = rng.sample(range(g.num_vertices), 2)
            g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
            assert len(cache._pool_memo) <= 4
            assert_cache_equivalent(cache, GraphIndexCache(g))
        assert kept_masses(cache)

    def test_a_pool_that_is_not_the_memos_is_summed_and_nothing_is_kept(self):
        g = self.star_graph()
        cache = g.index_cache()
        entry = cache.pool_entry("a", 1)
        before = cache.memo_info()
        twin = PoolEntry(tuple(list(entry.members)))  # equal members, never the memo's
        assert cache.degree_mass(twin) == 5 and twin.mass is None
        assert not kept_masses(cache)
        assert cache.degree_mass(entry) == 5
        assert kept_masses(cache) == {(cache.label_id("a"), 1, 0): 5}
        g.add_edge(0, 26)  # vertex 0 stays a member; only its degree moves
        assert cache.pool_entry("a", 1) is entry
        assert kept_masses(cache) == {(cache.label_id("a"), 1, 0): 6}
        off = GraphIndexCache(g, candidate_memo_size=0)
        assert off.degree_mass(off.pool_entry("a", 1)) == 6
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
            assert cache._pool_memo[key].members == fresh._scan(*key)
        assert cache._pool_memo[(cache.label_id("b"), 3, 0)].members == (2,)

    def test_adjacency_masks_evict_only_touched_vertices(self):
        """A mask is no memo, so a write has none to evict: every ask reads
        the row as it is now."""
        g = small_graph()
        cache = g.index_cache()
        m3 = cache.adjacency_mask(3)
        m0 = cache.adjacency_mask(0)
        assert m3 and m0
        g.add_edge(0, 2)
        assert "_adj_masks" not in GraphIndexCache.__slots__
        assert cache.adjacency_mask(3) == m3
        assert cache.adjacency_mask(0) == m0 | (1 << 2)

    def test_a_mask_built_across_a_write_is_not_kept(self, monkeypatch):
        """The parked-probe recipe on the bitset memo: the build reads the
        row, parks, a write adds an edge to that row, the build finishes.
        Its caller gets the pre-write mask; the cache keeps nothing for the
        vertex, and the next ask sees the new edge."""
        g = banded_graph()
        cache = g.index_cache()
        v = 0
        x = next(w for w in g.vertices() if w != v and not g.has_edge(v, w))
        entered, release = threading.Event(), threading.Event()

        def parked(self, w):
            row = self._rows[w]  # the pre-write row
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return row

        monkeypatch.setattr(LabeledGraph, "neighbors", parked)
        got = {}
        reader = threading.Thread(target=lambda: got.setdefault("mask", cache.adjacency_mask(v)))
        reader.start()
        assert entered.wait(30)
        g.add_edge(v, x)
        release.set()
        reader.join(30)
        assert not reader.is_alive()
        monkeypatch.undo()
        assert not got["mask"] >> x & 1
        assert cache.adjacency_mask(v) >> x & 1
        assert_cache_equivalent(cache, GraphIndexCache(g))

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


class TestGroupedRows:
    """A localized miss filters the father's whole row by the pool's set
    view (the label-grouped rows it once read are gone). These ids pin the
    miss path: every list kept is the row filter after every batch, a write
    pops the lists it changed and keeps every other, pickling carries no
    entry state, a list built across a write is not kept, and readers
    beside a writer keep no stale list."""

    QUERIES = [
        QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)]),
        QueryGraph(["b", "a"], [(0, 1)]),
    ]

    @staticmethod
    def miss(graph, cache, plan, query, fathers) -> None:
        """A fresh view over ``plan`` asks every list a frame could, for ``fathers``."""
        view = CandidateIndex(graph, query, cache=cache, plan=plan)
        for u in range(query.size):
            for fv in fathers:
                assert view.localized(u, fv) == row_filter(graph, fv, plan.pools[u]), (u, fv)

    def test_every_kept_grouping_is_a_fresh_regroup_after_every_batch(self):
        g = banded_graph()
        cache = g.index_cache()
        rng = random.Random(31)
        dropped = held = 0
        for step in range(40):
            fathers = rng.sample(range(g.num_vertices), g.num_vertices // 2)
            for query in self.QUERIES:
                self.miss(g, cache, compile_plan(query, cache), query, fathers)
            batch = [("add_vertex", rng.choice("abcde"))] if step % 4 == 0 else []
            n = g.num_vertices + len(batch)
            for _ in range(rng.randrange(1, 6)):
                u, v = rng.sample(range(n), 2)
                batch.append((rng.choice(["add_edge", "remove_edge"]), u, v))
            before = sum(len(entry.lists) for entry in cache._pool_memo.values())
            g.mutate(batch, compaction_threshold=None)
            after = sum(len(entry.lists) for entry in cache._pool_memo.values())
            dropped += before - after
            held += after
            assert_cache_equivalent(cache, GraphIndexCache(g))
        assert {"d", "e"} <= set(g.label_to_id) and dropped and held

    def test_a_write_drops_its_endpoints_and_keeps_everything_else(self):
        g = banded_graph()
        cache = g.index_cache()
        warm_pool_spread(cache)
        held = {key: dict(entry.lists) for key, entry in cache._pool_memo.items()}
        u = 0
        v = next(v for v in g.vertices() if v != u and not g.has_edge(u, v))
        g.add_edge(u, v)
        near = {u, v, *g.neighbors(u), *g.neighbors(v)}
        popped = []
        for key, lists in held.items():
            kept = cache._pool_memo[key].lists
            for fv, hit in lists.items():
                if fv in kept:
                    assert kept[fv] is hit, (key, fv)
                else:
                    popped.append(fv)
        assert popped and set(popped) <= near
        assert len(popped) < sum(map(len, held.values())) / 10
        assert_cache_equivalent(cache, GraphIndexCache(g))
        lists = {key: dict(entry.lists) for key, entry in cache._pool_memo.items()}
        g.add_vertex("zz")  # an isolated vertex of a new label changes no list
        assert {key: entry.lists for key, entry in cache._pool_memo.items()} == lists
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_a_pickled_cache_carries_no_grouping(self):
        """An entry pickles as its members: neither a cache nor a plan grows
        on the wire when its entries keep views, masses and lists."""
        g = banded_graph()
        cache = g.index_cache()
        plan = compile_plan(self.QUERIES[0], cache)
        sizes = len(pickle.dumps(cache)), len(pickle.dumps(plan))
        warm_pool_spread(cache)
        for entry in plan.entries:
            cache.degree_mass(entry)
            entry.set_view()
            entry.lists.update((fv, row_filter(g, fv, entry.members)) for fv in g.vertices())
        assert (len(pickle.dumps(cache)), len(pickle.dumps(plan))) == sizes
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.pools == plan.pools
        for entry in clone.entries:
            assert (entry.view, entry.mass, entry.lists) == (None, None, None)
        assert pickle.loads(pickle.dumps(cache))._pool_memo == {}

    def test_a_grouping_built_across_a_write_is_not_kept(self, monkeypatch):
        """The parked-probe recipe on ``CandidateIndex.localized``: a miss
        reads the father's row, parks, a write adds an edge to that row from
        a member of the pool, the miss finishes. Its caller gets the
        pre-write list; the entry keeps nothing for the father, and the
        next view's miss sees the new edge."""
        g = banded_graph()
        cache = g.index_cache()
        query = self.QUERIES[1]  # node 0 'b', node 1 'a'
        plan = compile_plan(query, cache)
        fv = 0
        x = next(w for w in plan.pools[0] if not g.has_edge(fv, w))
        entered, release = threading.Event(), threading.Event()

        def parked(self, w):
            row = self._rows[w]  # the pre-write row
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return row

        monkeypatch.setattr(LabeledGraph, "neighbors", parked)
        got = {}
        view = CandidateIndex(g, query, cache=cache, plan=plan)
        reader = threading.Thread(target=lambda: got.setdefault("list", view.localized(0, fv)))
        reader.start()
        assert entered.wait(30)
        g.add_edge(fv, x)  # x stays a member: the entry survives, its list for fv changed
        release.set()
        reader.join(30)
        assert not reader.is_alive()
        monkeypatch.undo()
        entry = cache._pool_memo[(cache.label_id("b"), *plan.profiles[0][1:])]
        assert entry is plan.entries[0] and view._localized[0] is entry.lists
        assert x not in got["list"] and fv not in entry.lists
        assert x in CandidateIndex(g, query, cache=cache).localized(0, fv)
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_readers_beside_a_writer_keep_no_stale_grouping(self):
        """Four readers holding their plans across writes — so their entries
        are retired under them — and viewing them afresh to ask lists of six
        hot fathers while a writer toggles edges among those fathers, the
        interpreter switching threads every microsecond. A view over a
        retired entry fills a private dict; between two writes every list the
        memo keeps is its row filter, and no retired entry keeps one."""
        g = banded_graph()
        cache = g.index_cache()
        plans = [(query, compile_plan(query, cache)) for query in self.QUERIES]
        deadline = time.monotonic() + 1.0
        errors, asked = [], [0] * 4

        def read(tid):
            rng = random.Random(tid)
            try:
                while time.monotonic() < deadline:
                    query, plan = rng.choice(plans)
                    view = CandidateIndex(g, query, cache=cache, plan=plan)
                    for u in range(query.size):
                        view.localized(u, rng.randrange(6))
                    asked[tid] += 1
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(tid,)) for tid in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stale, writes, held = [], 0, 0
        try:
            for reader in readers:
                reader.start()
            rng = random.Random(8)
            while time.monotonic() < deadline:
                u, v = rng.sample(range(6), 2)
                g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                writes += 1
                with cache._lock:  # one snapshot of entries and lists
                    memo = {key: (e.members, dict(e.lists)) for key, e in cache._pool_memo.items()}
                    live = {id(e) for e in cache._pool_memo.values()}
                    stale += [
                        e.members for _, plan in plans for e in plan.entries
                        if id(e) not in live and e.lists is not None
                    ]
                held += sum(len(lists) for _, lists in memo.values())
                stale += [
                    (key, fv) for key, (members, lists) in memo.items()
                    for fv, hit in lists.items() if hit != row_filter(g, fv, members)
                ]
            for reader in readers:
                reader.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers) and not errors, errors
        assert writes > 100 and min(asked) > 0 and held and not stale, stale
        assert_cache_equivalent(cache, GraphIndexCache(g), [e for _, p in plans for e in p.entries])


class TestPoolViews:
    """The set views kept on the pool memo's entries: one per entry, built on
    its first ask and shared by every plan over it; a rebuilt tuple gets a
    new entry, a retired entry keeps its view and nothing else, and no entry
    state is pickled. The localized lists kept on the entries follow the
    retire rule, and a write pops exactly the lists it changed."""

    QUERIES = [
        QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)]),
        QueryGraph(["a", "a", "b"], [(0, 1), (1, 2)]),
        QueryGraph(["b", "c", "a", "c"], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ]

    @staticmethod
    def ask(plan) -> list:
        return [plan.pool_set(u) for u in range(len(plan.pools))]

    def test_every_kept_view_is_its_entrys_set_after_every_batch(self):
        """Random batches over plans compiled at every version, at an LRU cap
        that the plans' keys overflow: rebuilt, bulk-dropped and evicted entries
        all pass through the equivalence check with views held."""
        g = banded_graph()
        cache = g._cache = GraphIndexCache(g, candidate_memo_size=6)
        rng = random.Random(41)
        held = 0
        for step in range(60):
            plans = [compile_plan(query, cache) for query in self.QUERIES]
            for plan in plans:
                assert self.ask(plan) == [frozenset(pool) for pool in plan.pools]
            warm_pool_spread(cache, labels=[rng.choice("abc")])  # evicts down to the cap
            assert len(cache._pool_memo) <= 6
            held += sum(entry.view is not None for entry in cache._pool_memo.values())
            batch = [("add_vertex", rng.choice("abc"))] if step % 5 == 0 else []
            n = g.num_vertices + len(batch)
            for _ in range(rng.randrange(1, 4) if step % 6 else 16):  # every sixth a bulk one
                u, v = rng.sample(range(n), 2)
                batch.append((rng.choice(["add_edge", "remove_edge"]), u, v))
            g.mutate(batch, compaction_threshold=None)
            planned = [entry for plan in plans for entry in plan.entries]
            assert_cache_equivalent(cache, GraphIndexCache(g), planned)
        info = cache.memo_info()
        assert held and info["rebuilt"] and info["dropped"]

    def test_a_view_from_a_replaced_tuple_is_returned_but_not_kept(self):
        """A plan compiled before a write asks after it: the entry its pool came
        from was rebuilt, so the plan gets the retired entry's set of its own
        pool and the memo's new entry builds nothing for it; the plan compiled
        after the write gets the new entry's view."""
        g = TestPoolRepair.star_graph()
        cache = g.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])
        before = compile_plan(query, cache)
        key = (cache.label_id("a"), 1, cache.mask_for(["b"]))
        assert before.pools[0] == (0, 1) and before.entries[0] is cache._pool_memo[key]
        g.add_edge(2, 30)  # vertex 2 joins the entry node 0 resolved to
        entry = cache._pool_memo[key]
        assert entry.members == (0, 1, 2) and entry is not before.entries[0]
        assert before.pool_set(0) == frozenset({0, 1}) and entry.view is None
        after = compile_plan(query, cache)
        view = after.pool_set(0)
        assert view == frozenset({0, 1, 2}) and entry.view is view
        assert before.pool_set(0) == frozenset({0, 1})  # the retired entry's, still
        assert_cache_equivalent(cache, GraphIndexCache(g), before.entries)

    def test_lists_for_a_replaced_tuple_are_private(self):
        """The same for localized lists: a plan compiled before the write views
        it after and gets a private dict each time, while a plan over the
        rebuilt entry shares the dict the old entry handed it."""
        g = TestPoolRepair.star_graph()
        cache = g.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])
        before = compile_plan(query, cache)
        key = (cache.label_id("a"), 1, cache.mask_for(["b"]))
        _, (kept, _) = cache.entry_lists(before.entries)
        assert cache._pool_memo[key].lists is kept  # the entry's own dict
        g.add_edge(2, 30)  # vertex 2 joins the entry node 0 resolved to
        assert cache._pool_memo[key].members == (0, 1, 2) and cache._pool_memo[key].lists is kept
        for _ in range(2):
            _, (lists, _) = cache.entry_lists(before.entries)
            assert lists == {} and lists is not kept
        after = compile_plan(query, cache)
        assert cache.entry_lists(after.entries)[1][0] is kept

    def test_a_view_parked_across_a_write_keeps_no_list(self, monkeypatch):
        """A view is handed its dicts, then parked while a write flips a member
        of its pool, then misses: its list is filtered by the pre-write pool,
        so it is returned but not kept, although the dict the view holds
        passed to the rebuilt entry. The version is the view's, read with its
        dicts; read per miss, it would be the write's and the list kept."""
        g = TestPoolRepair.star_graph()
        cache = g.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])
        plan = compile_plan(query, cache)
        key = (cache.label_id("a"), 1, cache.mask_for(["b"]))
        entered, release, views = threading.Event(), threading.Event(), []
        entry_lists = GraphIndexCache.entry_lists

        def parked(self, *args):
            handed = entry_lists(self, *args)  # the pre-write version and dicts
            entered.set()
            assert release.wait(30)
            return handed

        monkeypatch.setattr(GraphIndexCache, "entry_lists", parked)
        reader = threading.Thread(
            target=lambda: views.append(CandidateIndex(g, query, cache=cache, plan=plan))
        )
        reader.start()
        assert entered.wait(30)
        g.add_edge(2, 30)  # vertex 2 joins the entry node 0 resolved to
        release.set()
        reader.join(30)
        monkeypatch.undo()
        (view,) = views
        assert view.localized(0, 30) == ()  # N(30) ∩ the pre-write pool (0, 1)
        lists = cache._pool_memo[key].lists
        assert lists is view._localized[0] and 30 not in lists
        assert CandidateIndex(g, query, cache=cache).localized(0, 30) == (2,)
        assert_cache_equivalent(cache, GraphIndexCache(g), plan.entries)

    def test_a_rebuild_drops_the_view_and_the_next_ask_builds_a_new_one(self):
        g = TestPoolRepair.star_graph()
        cache = g.index_cache()
        entry = cache.pool_entry("a", 3)
        view = entry.set_view()
        assert view == {1} and cache.pool_entry("a", 3).view is view
        g.add_edge(0, 26)  # vertex 0 reaches degree 3
        rebuilt = cache.pool_entry("a", 3)
        assert rebuilt is not entry and rebuilt.view is None
        assert entry.view is view and entry.mass is None and entry.lists is None
        assert rebuilt.set_view() == {0, 1} and rebuilt.view == {0, 1}
        assert_cache_equivalent(cache, GraphIndexCache(g), [entry])

    def test_a_pickled_cache_carries_no_view(self):
        g = banded_graph()
        cache = g.index_cache()
        warm_pool_spread(cache)
        entry = next(iter(cache._pool_memo.values()))
        assert entry.view is not None and entry.mass is not None and entry.lists
        clone = pickle.loads(pickle.dumps(entry))
        assert clone.members == entry.members and len(pickle.dumps(entry)) == len(
            pickle.dumps(PoolEntry(entry.members))
        )
        assert (clone.view, clone.mass, clone.lists) == (None, None, None)
        assert pickle.loads(pickle.dumps(cache))._pool_memo == {}

    def test_readers_beside_a_writer_keep_no_stale_view(self):
        """Four readers compiling plans and asking their views while a writer
        toggles edges, the interpreter switching threads every microsecond.
        Plans compiled across a write hold entries the memo has retired;
        between two writes every view the memo holds is its entry's set."""
        g = banded_graph()
        cache = g.index_cache()
        deadline = time.monotonic() + 1.0
        errors, asked = [], [0] * 4

        def read(tid):
            rng = random.Random(tid)
            try:
                while time.monotonic() < deadline:
                    plan = compile_plan(rng.choice(self.QUERIES), cache)
                    for view, pool in zip(self.ask(plan), plan.pools):
                        assert view == frozenset(pool)
                    asked[tid] += 1
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(tid,)) for tid in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stale, writes, views = [], 0, 0
        try:
            for reader in readers:
                reader.start()
            rng = random.Random(9)
            while time.monotonic() < deadline:
                u, v = rng.sample(range(12), 2)
                g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                writes += 1
                with cache._lock:  # one snapshot of entries and views
                    memo = {key: (e.members, e.view) for key, e in cache._pool_memo.items()}
                views += sum(view is not None for _, view in memo.values())
                stale += [
                    key for key, (members, view) in memo.items()
                    if view is not None and view != frozenset(members)
                ]
            for reader in readers:
                reader.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers) and not errors, errors
        assert writes > 100 and min(asked) > 0 and views and not stale, stale
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_readers_beside_a_writer_keep_no_stale_list(self):
        """Four readers viewing freshly compiled plans and asking localized
        lists of low fathers while a writer toggles edges among those
        fathers, the interpreter switching threads every microsecond. Between
        two writes every list kept is its father's row filtered by its entry:
        one stored from a pre-write row into a dict the write did not drop
        would show there."""
        g = banded_graph()
        cache = g.index_cache()
        deadline = time.monotonic() + 1.0
        errors, asked = [], [0] * 4

        def read(tid):
            rng = random.Random(tid)
            try:
                while time.monotonic() < deadline:
                    query = rng.choice(self.QUERIES)
                    plan = compile_plan(query, cache)
                    view = CandidateIndex(g, query, cache=cache, plan=plan)
                    for u, w in query.edges():
                        for fv in plan.pools[w][:6]:
                            view.localized(u, fv)
                    asked[tid] += 1
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(tid,)) for tid in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stale, writes, held = [], 0, 0
        try:
            for reader in readers:
                reader.start()
            rng = random.Random(10)
            while time.monotonic() < deadline:
                u, v = rng.sample(range(18), 2)
                g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                writes += 1
                with cache._lock:  # one snapshot of entries and lists
                    kept = {key: (e.members, dict(e.lists)) for key, e in cache._pool_memo.items()}
                held += sum(len(lists) for _, lists in kept.values())
                stale += [
                    (key, fv) for key, (members, lists) in kept.items()
                    for fv, hit in lists.items() if hit != row_filter(g, fv, members)
                ]
            for reader in readers:
                reader.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers) and not errors, errors
        assert writes > 100 and min(asked) > 0 and held and not stale, stale
        assert_cache_equivalent(cache, GraphIndexCache(g))

    def test_a_scan_inside_a_write_is_not_left_stale(self, monkeypatch):
        """A reader's first scan of a profile, landing after the write chose
        the labels to repair but before it moved a degree, must not store a
        pool of pre-write degrees that no repair touches: the scan waits for
        the write. The stress test above reaches this window only rarely; this
        one starts a reader inside it."""
        g = TestPoolRepair.star_graph()
        cache = g.index_cache()
        row = LabeledGraph.neighbors
        readers, scanned = [], threading.Event()

        def row_then_read(self, v):
            # The write reads its first dirty row: labels chosen, no degree moved.
            if not readers and sys._getframe(1).f_code.co_name == "apply_delta":
                reader = threading.Thread(
                    target=lambda: scanned.set() if cache.candidate_pool("a", 3) else None
                )
                reader.start()
                readers.append(reader)
                scanned.wait(0.2)  # the scan would land here, were the lock free
            return row(self, v)

        monkeypatch.setattr(LabeledGraph, "neighbors", row_then_read)
        g.add_edge(0, 26)  # vertex 0 reaches degree 3
        (reader,) = readers
        reader.join(5)
        assert not reader.is_alive() and scanned.is_set()
        assert cache.candidate_pool("a", 3) == (0, 1)
        assert_cache_equivalent(cache, GraphIndexCache(g))


    @pytest.mark.parametrize("exit", ["evicted", "dropped", "rebuilt"])
    def test_an_entry_leaving_the_memo_keeps_no_mass_and_no_lists(self, exit):
        """Each of the three ways out of the memo retires the entry: after
        it, a view handed the old entry gets a private dict, and the cost
        model sums the old entry's mass afresh — here after a later write
        moved a member's degree, which a mass left on it would miss."""
        g = TestPoolRepair.star_graph()
        cache = g._cache = GraphIndexCache(g, candidate_memo_size=2 if exit == "evicted" else None)
        query = QueryGraph(["a", "b"], [(0, 1)])
        plan = compile_plan(query, cache)
        old = plan.entries[0]
        CandidateIndex(g, query, cache=cache, plan=plan).localized(0, 24)
        assert cache.degree_mass(old) == 5 and old.lists == {24: (0,)}
        if exit == "evicted":
            cache.candidate_pool("c", 0)
            cache.candidate_pool("c", 1)  # both of the plan's entries go
        elif exit == "dropped":
            warm_pool_spread(cache, labels=["a"])  # 16 'a' entries
            g.mutate([("add_edge", 2, 3), ("add_edge", 4, 5)], compaction_threshold=None)
        else:
            g.add_edge(2, 30)  # vertex 2 joins the pool
        assert old is not cache._pool_memo.get((cache.label_id("a"), 1, cache.mask_for(["b"])))
        g.add_edge(0, 31)  # vertex 0's degree moves to 3
        first, second = (CandidateIndex(g, query, cache=cache, plan=plan) for _ in range(2))
        assert first._localized[0] == {} and first._localized[0] is not second._localized[0]
        assert cache.degree_mass(old) == g.degree(0) + g.degree(1) == 6
        assert old.mass is None and old.lists is None
        assert_cache_equivalent(cache, GraphIndexCache(g), plan.entries)

class TestVersionAndLog:
    """There is no log: the cache counts applied ops in ``delta_seq`` and
    keeps no history of them. The ids keep their names."""

    def test_ops_since_returns_contiguous_tail(self):
        """Each applied op moves ``delta_seq`` by one and a no-op by
        nothing; what the ops were is kept nowhere, so a graph written back
        to where it started pickles to the size it had."""
        g = small_graph()
        cache = g.index_cache()
        size = len(pickle.dumps(g))
        g.add_edge(0, 3)
        g.add_edge(1, 4)
        g.add_edge(1, 4)  # a no-op
        g.remove_edge(0, 3)
        assert cache.version == (cache.epoch, 3)
        for _ in range(50):
            g.add_edge(0, 3)
            g.remove_edge(0, 3)
        g.remove_edge(1, 4)
        assert cache.version == (cache.epoch, 104)
        assert len(pickle.dumps(g)) - size <= 4  # two counters wider at most

    def test_on_compaction_resets_log_and_epoch(self):
        """The id keeps its name; what a checkpoint does became: nothing but
        ``delta_size`` restarting — the epoch and ``delta_seq`` are not
        reset, the plans stay, and the next write counts on."""
        from repro.core.dsql import DSQL
        from repro.graph.query_graph import QueryGraph

        g = small_graph()
        cache = g.index_cache()
        g.add_edge(0, 3)
        g.add_edge(1, 4)
        DSQL(g, k=2).query(QueryGraph(["a", "b"], [(0, 1)]))
        plans, size = cache.plan_cache, cache.plan_cache.info()["size"]
        assert size > 0 and g.delta_size == 2
        version = cache.version
        g.compact()
        assert cache.version == version == (cache.epoch, 2) and g.delta_size == 0
        assert cache.plan_cache is plans and plans.info()["size"] == size
        g.remove_edge(0, 3)
        assert cache.version == (cache.epoch, 3) and g.delta_size == 1

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
