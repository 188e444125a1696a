"""Unit tests for the live-mutation surface, on built and grown graphs.

The contract under test (docs/mutation.md): ``add_vertex`` / ``add_edge``
/ ``remove_edge`` mutate the live views in place, duplicate adds and
absent removes are no-ops, malformed ops reject *before* anything is
applied (a failed batch leaves the graph untouched), and ``compact()``
checkpoints the write stream (delta counter reset, mutation log emptied)
without changing the version, any observable topology or any adjacency data.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
import repro.graph.labeled_graph as graph_module
from repro.graph.labeled_graph import LabeledGraph, MutationSummary
from tests.conftest import (
    STORAGE_STATES,
    assert_arrays_match_rebuild,
    build_graph,
    counting,
    normalize_edges,
)


def small_graph(storage: str = "csr") -> LabeledGraph:
    return build_graph(
        ["a", "b", "b", "c", "a"],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        storage=storage,
    )


def assert_topology_equal(g: LabeledGraph, h: LabeledGraph) -> None:
    assert g.num_vertices == h.num_vertices
    assert g.num_edges == h.num_edges
    assert list(g.labels) == list(h.labels)
    assert sorted(g.edges()) == sorted(h.edges())
    for v in range(g.num_vertices):
        assert g.neighbors(v) == h.neighbors(v)
        assert g.degree(v) == h.degree(v)


@pytest.mark.parametrize("storage", STORAGE_STATES)
class TestEdgeMutations:
    def test_add_edge_updates_all_views(self, storage):
        g = small_graph(storage)
        assert g.add_edge(0, 2) is True
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert g.num_edges == 6
        assert g.neighbors(0) == (1, 2, 4)  # stays sorted
        assert g.degree(0) == 3 and g.degree(2) == 3
        assert g.degree_sequence()[0] == 3

    def test_duplicate_add_is_noop(self, storage):
        g = small_graph(storage)
        assert g.add_edge(0, 1) is False
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 5

    def test_remove_edge_updates_all_views(self, storage):
        g = small_graph(storage)
        assert g.remove_edge(1, 2) is True
        assert not g.has_edge(1, 2) and not g.has_edge(2, 1)
        assert g.num_edges == 4
        assert g.neighbors(1) == (0,)
        assert g.degree(2) == 1

    def test_absent_remove_is_noop(self, storage):
        g = small_graph(storage)
        assert g.remove_edge(0, 2) is False
        assert g.num_edges == 5

    def test_self_loop_and_range_reject(self, storage):
        g = small_graph(storage)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)
        with pytest.raises(GraphError):
            g.add_edge(0, 99)
        with pytest.raises(GraphError):
            g.remove_edge(-1, 0)
        assert g.num_edges == 5


@pytest.mark.parametrize("storage", STORAGE_STATES)
class TestAddVertex:
    def test_add_vertex_returns_new_id(self, storage):
        g = small_graph(storage)
        v = g.add_vertex("z")
        assert v == 5
        assert g.num_vertices == 6
        assert g.label(v) == "z"
        assert g.degree(v) == 0 and g.neighbors(v) == ()
        assert g.add_edge(v, 0) is True
        assert g.neighbors(v) == (0,)

    def test_label_interning_is_append_only(self, storage):
        g = small_graph(storage)
        table_before = list(g.label_table)
        g.add_vertex("a")  # existing label: no table growth
        assert list(g.label_table) == table_before
        g.add_vertex("z")  # new label appended, old ids untouched
        assert g.label_table[: len(table_before)] == table_before
        assert g.label_table[-1] == "z"


@pytest.mark.parametrize("storage", STORAGE_STATES)
class TestBatchMutate:
    def test_batch_applies_in_order(self, storage):
        g = small_graph(storage)
        summary = g.mutate(
            [
                ("add_vertex", "z"),
                ("add_edge", 5, 0),
                ("remove_edge", 0, 1),
                ("add_edge", 0, 1),  # re-add: applied again
                ("add_edge", 0, 1),  # duplicate: skipped
            ]
        )
        assert isinstance(summary, MutationSummary)
        assert summary.applied == 4
        assert g.has_edge(5, 0) and g.has_edge(0, 1)

    def test_invalid_batch_is_atomic(self, storage):
        g = small_graph(storage)
        reference = small_graph(storage)
        for bad in (
            [("add_edge", 0, 1), ("add_edge", 3, 3)],  # self-loop later
            [("remove_edge", 0, 1), ("add_edge", 0, 99)],  # out of range
            [("add_edge", 0, 1), ("frobnicate", 1)],  # unknown kind
            [("add_edge", 0)],  # malformed arity
            [("add_edge", 0, "x")],  # non-int endpoint
            [("add_edge", 1, 2), ("add_vertex", ["x"])],  # unhashable label later
        ):
            with pytest.raises(GraphError):
                g.mutate(bad)
            assert_topology_equal(g, reference)

    def test_unhashable_label_leaves_graph_and_cache_untouched(self, storage):
        g = small_graph(storage)
        g.remove_edge(1, 2)
        g.index_cache()
        edges, labels, version = list(g.edges()), list(g.labels), g.version
        signature = g.neighborhood_signature(2)
        with pytest.raises(GraphError, match="not hashable"):
            g.mutate([("add_edge", 1, 2), ("add_vertex", ["x"])])
        assert list(g.edges()) == edges
        assert list(g.labels) == labels and g.num_vertices == 5
        assert g.version == version
        assert g.neighborhood_signature(2) == signature
        with pytest.raises(GraphError, match="not hashable"):
            g.add_vertex(["x"])
        assert list(g.labels) == labels and g.version == version

    def test_batch_bounds_account_for_added_vertices(self, storage):
        g = small_graph(storage)
        summary = g.mutate([("add_vertex", "z"), ("add_edge", 5, 1)])
        assert summary.applied == 2
        assert g.has_edge(5, 1)


class TestEndpointRule:
    """One check (``labeled_graph.check_edge``) behind every way an edge
    arrives, run once per edge. Two ids keep the names of doors that are
    gone: ``normalize_edges`` is the test-side reference the constructor is
    compared with, ``backend.add_edge`` the one door that still takes input
    from another process — ``replay``."""

    ENTRY_POINTS = {
        "constructor": lambda g, u, v: LabeledGraph(list(g.labels), [(0, 1), (u, v)]),
        "normalize_edges": lambda g, u, v: normalize_edges(g.num_vertices, [(u, v)]),
        "add_edge": lambda g, u, v: g.add_edge(u, v),
        "remove_edge": lambda g, u, v: g.remove_edge(u, v),
        "backend.add_edge": lambda g, u, v: g.replay(
            [(g.index_cache().delta_seq + 1, ("add_edge", u, v))]
        ),
        "mutate": lambda g, u, v: g.mutate([("add_edge", 0, 2), ("add_edge", u, v)]),
        "builder": lambda g, u, v: builder_of(g).add_edge(u, v),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [True, 0.0, 2.0, "2", None], ids=repr)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_integer_endpoint_is_a_graph_error(self, entry, bad, slot):
        g = small_graph()
        g.index_cache()
        reference, version = small_graph(), g.version
        pair = (bad, 3) if slot == 0 else (3, bad)
        with pytest.raises(GraphError, match="must be integers"):
            self.ENTRY_POINTS[entry](g, *pair)
        assert_topology_equal(g, reference)
        assert g.version == version and g.delta_size == 0
        assert all(type(w) is int for v in g.vertices() for w in g.neighbors(v))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_range_and_self_loop_diagnostics_are_shared(self, entry):
        g = small_graph()
        with pytest.raises(GraphError, match=r"\(1, 5\) references a vertex outside \[0, 5\)"):
            self.ENTRY_POINTS[entry](g, 1, 5)
        with pytest.raises(GraphError, match=r"\(-1, 2\) references a vertex outside"):
            self.ENTRY_POINTS[entry](g, -1, 2)
        with pytest.raises(GraphError, match=r"self-loop \(3, 3\)"):
            self.ENTRY_POINTS[entry](g, 3, 3)
        assert_topology_equal(g, small_graph())

    def test_a_batch_checks_each_edge_once(self, monkeypatch):
        """``mutate`` validates the whole batch and then writes without
        asking again (it asked twice per edge op while the storage behind it
        re-checked); the single-op doors and ``replay`` ask once too."""
        g = small_graph()
        g.index_cache()
        checks = counting(monkeypatch, graph_module, "check_edge")
        ops = [("add_edge", 0, 2), ("add_vertex", "z"), ("remove_edge", 0, 1), ("add_edge", 5, 1),
               ("add_edge", 0, 2), ("remove_edge", 1, 3)]  # the last two are no-ops
        assert g.mutate(ops).applied == 4
        # (vertex count in force, u, v): one call per edge op, in batch order
        assert checks == [(5, 0, 2), (6, 0, 1), (6, 5, 1), (6, 0, 2), (6, 1, 3)]
        del checks[:]
        g.add_edge(1, 3), g.remove_edge(1, 3), g.remove_edge(1, 3)
        assert len(checks) == 3
        del checks[:]
        g.replay([(g.index_cache().delta_seq + 1, ("add_edge", 1, 3))])
        assert checks == [(6, 1, 3)] and g.has_edge(1, 3)

    def test_int_subclasses_still_pass(self):
        import enum

        class V(enum.IntEnum):
            A = 0
            C = 2

        g = small_graph()
        assert g.add_edge(V.A, V.C) is True and g.has_edge(0, 2)


def builder_of(graph: LabeledGraph) -> GraphBuilder:
    builder = GraphBuilder()
    builder.add_vertices(graph.labels)
    builder.add_edges(graph.edges())
    return builder


class TestCSROverlayAndCompaction:
    def test_overlay_tracks_touched_and_delta(self):
        """There is no overlay to track: a write leaves rows, sets and
        degrees live and one number behind — ``delta_size``, the edge ops
        applied since the last compaction."""
        g = small_graph()
        b = g
        assert b.delta_size == 0
        g.add_edge(0, 2)
        assert b.delta_size == 1
        assert b.neighbors(0) == (1, 2, 4) and b.neighbor_set(2) == {0, 1, 3}
        assert g.add_edge(0, 2) is False and g.remove_edge(1, 3) is False
        assert b.delta_size == 1  # no-ops consume no delta
        g.add_vertex("z")
        assert b.delta_size == 1  # the threshold counts edge ops
        g.remove_edge(0, 2)
        assert b.delta_size == 2  # a restored row is still two deltas
        assert_arrays_match_rebuild(b)

    def test_compact_restores_pure_arrays(self):
        g = small_graph()
        rng = random.Random(5)
        for _ in range(30):
            u, v = rng.randrange(5), rng.randrange(5)
            if u == v:
                continue
            (g.add_edge if rng.random() < 0.6 else g.remove_edge)(u, v)
        g.add_vertex("z")
        g.add_edge(5, 0)
        snapshot = LabeledGraph(list(g.labels), list(g.edges()))
        b = g
        before = assert_arrays_match_rebuild(b)
        assert b.delta_size > 0
        g.compact()
        # Nothing to restore: the rows were a rebuild's before the
        # compaction and are the same ones after it.
        assert b.delta_size == 0
        after = assert_arrays_match_rebuild(b)
        assert after == before and len(after) == g.num_vertices
        assert sum(map(len, after)) == 2 * g.num_edges
        assert_topology_equal(g, snapshot)

    def test_mutate_auto_compacts_at_threshold(self):
        g = small_graph()
        ops = [("add_vertex", "z")] + [("add_edge", 5, t) for t in range(4)]
        summary = g.mutate(ops, compaction_threshold=3)
        assert summary.compacted is True
        assert g.delta_size == 0

    @pytest.mark.parametrize("threshold", [0, -1, 0.5, False, True, 1.5, "3"])
    def test_threshold_below_one_is_rejected_before_any_op(self, threshold):
        """An integer >= 1 or ``None``, the wire's rule: ``True`` used to
        compact as if 1, ``1.5`` was accepted, ``"3"`` escaped as TypeError."""
        g = small_graph()
        g.index_cache()
        g.add_edge(0, 2)
        version, plans = g.version, g.index_cache().plan_cache
        log = g.index_cache().ops_since(0)
        for ops in ([], [("add_edge", 1, 3)]):
            with pytest.raises(GraphError, match="compaction_threshold must be"):
                g.mutate(ops, compaction_threshold=threshold)
        assert g.version == version and not g.has_edge(1, 3)
        assert g.index_cache().ops_since(0) == log and len(log) == 1
        assert g.delta_size == 1 and g.index_cache().plan_cache is plans
        # None still disables, 1 still compacts on the first delta.
        assert g.mutate([], compaction_threshold=None) == (0, False, version)
        assert g.mutate([], compaction_threshold=1).compacted is True


@pytest.mark.parametrize("storage", STORAGE_STATES)
class TestVersioning:
    def test_version_is_none_before_cache(self, storage):
        g = small_graph(storage)
        assert g.version is None
        g.add_edge(0, 2)  # mutating without a cache is fine
        assert g.version is None

    def test_delta_bumps_seq_compaction_bumps_epoch(self, storage):
        g = small_graph(storage)
        cache = g.index_cache()
        epoch0 = cache.epoch
        assert g.version == (epoch0, 0)
        g.add_edge(0, 2)
        g.remove_edge(0, 2)
        assert g.version == (epoch0, 2)
        # The id keeps its name; the behaviour became: a compaction bumps
        # nothing, and the next delta counts on from where the last stopped.
        g.compact()
        assert g.version == (epoch0, 2) and cache.epoch == epoch0
        g.add_edge(0, 2)
        assert g.version == (epoch0, 3)

    def test_noop_does_not_consume_a_delta(self, storage):
        g = small_graph(storage)
        g.index_cache()
        g.add_edge(0, 1)  # already present
        g.remove_edge(0, 2)  # already absent
        assert g.version[1] == 0


class TestReplay:
    def test_replay_converges_twin_graph(self):
        g = small_graph()
        twin = small_graph()
        cache = g.index_cache()
        twin.index_cache()
        g.mutate([("add_vertex", "z"), ("add_edge", 5, 0), ("remove_edge", 1, 2)])
        twin.replay(cache.ops_since(0))
        assert_topology_equal(g, twin)
        # Epochs are globally unique per cache instance (the pool's sync
        # protocol numbers workers in parent terms for exactly this
        # reason); only the delta_seq converges.
        assert twin.version[1] == g.version[1]

    def test_replay_gap_raises(self):
        g = small_graph()
        cache = g.index_cache()
        g.add_edge(0, 2)
        g.add_edge(0, 3)
        twin = small_graph()
        twin.index_cache()
        tail = cache.ops_since(1)  # starts at seq 2: a gap for the fresh twin
        with pytest.raises(GraphError, match="gap"):
            twin.replay(tail)

    TAIL_OPS = [
        ("add_vertex", "z"),
        ("add_edge", 5, 0),
        ("remove_edge", 1, 2),
        ("add_vertex", "a"),
        ("add_edge", 6, 5),
        ("add_edge", 1, 3),
    ]

    def published_tail(self):
        g = small_graph()
        cache = g.index_cache()
        g.mutate(self.TAIL_OPS, compaction_threshold=None)
        return g, cache.ops_since(0)

    def test_a_tail_in_one_call_equals_one_call_per_op(self, monkeypatch):
        from repro.indexes.graph_cache import GraphIndexCache
        from tests.indexes.test_delta_repair import assert_cache_equivalent, warm_pool_spread

        g, tail = self.published_tail()
        whole, stepwise = small_graph(), small_graph()
        for twin in (whole, stepwise):
            warm_pool_spread(twin.index_cache())
        calls = []
        repair = GraphIndexCache.apply_delta
        with monkeypatch.context() as patch:
            patch.setattr(
                GraphIndexCache, "apply_delta", lambda cache, ops: calls.append(1) or repair(cache, ops)
            )
            whole.replay(tail)
        assert calls == [1]  # one repair pass for the six ops
        for entry in tail:
            stepwise.replay([entry])
        for twin in (whole, stepwise):
            assert_topology_equal(g, twin)
            assert twin.version[1] == g.version[1] == len(tail)
            assert twin.index_cache().ops_since(0) == tail
            assert_cache_equivalent(twin.index_cache(), GraphIndexCache(twin))

    @pytest.mark.parametrize("bad_at", [0, 2, 5])
    def test_a_bad_op_mid_tail_keeps_cache_and_backend_agreeing(self, bad_at):
        from repro.indexes.graph_cache import GraphIndexCache
        from tests.indexes.test_delta_repair import assert_cache_equivalent, warm_pool_spread

        g, tail = self.published_tail()
        seq, op = tail[bad_at]
        bad = {
            "add_vertex": (seq, ("add_vertex", op[1] + 1, op[2])),  # id skew
            "add_edge": (seq, ("add_edge", 0, 1)),  # already present
            "remove_edge": (seq, ("remove_edge", 0, 2)),  # already absent
        }[op[0]]
        twin = small_graph()
        warm_pool_spread(twin.index_cache())
        with pytest.raises(GraphError, match="replay skew"):
            twin.replay(tail[:bad_at] + (bad,) + tail[bad_at + 1 :])
        assert twin.version[1] == bad_at
        assert twin.index_cache().ops_since(0) == tail[:bad_at]
        assert twin.num_vertices == len(twin.index_cache().label_ids)
        assert_cache_equivalent(twin.index_cache(), GraphIndexCache(twin))
        twin.replay(tail[bad_at:])  # the good tail still applies from there
        assert_topology_equal(g, twin)
