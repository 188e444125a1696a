"""White-box tests for :class:`LevelSearchEngine` internals."""

from __future__ import annotations

import random

import pytest

from repro.core.config import DSQLConfig
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.qsearch import enumerate_embeddings
from repro.queries.qflist import NO_FATHER

from tests.conftest import passes_filter_stack


def engine_for(graph, query, config=None, matched=None):
    config = config or DSQLConfig(k=5)
    return LevelSearchEngine(
        graph,
        query,
        CandidateIndex(graph, query),
        config,
        SearchStats(),
        matched if matched is not None else set(),
    )


@pytest.fixture()
def setting():
    #      v0(a) - v1(b) - v2(c)
    #        \----- v3(b) - v4(c)
    graph = LabeledGraph(
        ["a", "b", "c", "b", "c"], [(0, 1), (1, 2), (0, 3), (3, 4)]
    )
    query = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    return graph, query


def nodes(mask):
    """The query nodes a conflict-set bitmask names."""
    return {w for w in range(mask.bit_length()) if mask >> w & 1}


@pytest.fixture()
def repeated():
    """The data graph of ``setting`` plus v5(b), whose only neighbor is v4(c),
    and the path query b - a - b: its nodes 0 and 2 share a label."""
    graph = LabeledGraph(
        ["a", "b", "c", "b", "c", "b"], [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)]
    )
    query = QueryGraph(["b", "a", "b"], [(0, 1), (1, 2)])
    return graph, query


class TestConflictSet:
    """The conflict set is a bitmask over query nodes: bit ``w`` is node ``w``."""

    def test_static_part_is_query_neighbors(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        assert engine._static_conflicts == [0b010, 0b101, 0b010]
        assert nodes(engine._conflict_set(1, 0)) == {0, 2}

    def test_dynamic_part_catches_held_candidates(self, repeated):
        graph, query = repeated
        engine = engine_for(graph, query)
        # Node 2 wants a "b" vertex with an "a" neighbor. Node 0 shares its
        # label, so a vertex held under node 0 may be the one node 2 needed.
        engine._assignment[0] = 1  # v1(b), next to v0(a): a candidate of node 2
        assert nodes(engine._conflict_set(2, 0)) == {0, 1}
        engine._assignment[0] = 5  # v5(b) has no "a" neighbor: no candidate
        assert nodes(engine._conflict_set(2, 0)) == {1}
        engine._assignment[0] = UNMATCHED  # an unassigned node is in no pool
        assert nodes(engine._conflict_set(2, 0)) == {1}

    def test_dynamic_part_is_the_full_filter_stack_whatever_the_pools_hold(self, repeated):
        """Pool membership answers CT(u, beta) because the pools are the
        full stack — there is no view with a filter off: a held vertex is
        blamed exactly when it passes the failed node's label + degree +
        signature filters, recomputed here from the cache's tables. Only a
        node of ``u``'s label can hold such a vertex, so only those are
        probed: node 1 (label a) holding any vertex is never blamed."""
        graph, query = repeated
        engine = engine_for(graph, query)
        assert engine._same_label == [(2,), (), (0,)]
        for u, other in ((0, 2), (2, 0)):
            static = set(query.neighbors(u))
            for held in range(graph.num_vertices):
                engine._assignment[other] = held
                dynamic = {other} if passes_filter_stack(graph, query, u, held) else set()
                assert nodes(engine._conflict_set(u, 0)) == (static | dynamic) - {u}, (u, held)
            engine._assignment[other] = UNMATCHED
        assert any(passes_filter_stack(graph, query, 2, held) for held in range(6))
        assert not passes_filter_stack(graph, query, 2, 5)

    def test_failure_set_excludes_self(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        blamed = 1 << 1 | 1 << 7  # what failed children blamed
        assert nodes(engine._conflict_set(1, blamed)) == {0, 2, 7}


class Watched(list):
    """A candidate list that counts how often a frame iterates it."""

    iterated = 0

    def __iter__(self):
        self.iterated += 1
        return super().__iter__()


def enter(engine, query, prefix):
    """Install the level-0 frames and assign ``prefix`` (vertices, in search
    order) as a frame at depth ``len(prefix)`` would find them."""
    frames = engine.candidates.plan.frames(query, ())
    engine.order, engine._frames = frames[0], frames[1:]
    for u, v in zip(engine.order, prefix):
        engine._assignment[u] = v
        engine._used.add(v)
    return engine._frames


class TestRcand:
    """What a frame reads as ``Rcand`` (the prologue lives in the frame)."""

    def test_localized_uses_father_neighborhood(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        view = engine.candidates
        root = view.plan.frames(query, ())[1][0]
        vf = view.candidates(root)[0]
        _root_frame, (child, father, *_), *_ = enter(engine, query, [vf])
        assert father == root
        # Rcand shrinks to N(father's match) ∩ candS(child) ...
        expected = tuple(w for w in graph.neighbors(vf) if view.is_candidate(child, w))
        assert view.localized(child, vf) == expected
        # ... and the frame reads the view's memo in place, not a copy.
        watched = view._localized[child][vf] = Watched(expected)
        assert engine._single_frame(1) is None
        assert watched.iterated == 1
        assert engine._assignment[child] in expected
        assert engine.stats.kernel_merge >= 1 and engine.stats.kernel_scan == 0

    def test_non_localized_returns_full_bucket(self, setting):
        """No frame with a father walks its full bucket: localization is
        not a setting, so the last frame reads the father's localized list."""
        graph, query = setting
        engine = engine_for(graph, query)
        order = engine.candidates.plan.frames(query, ())[0]
        embedding = enumerate_embeddings(graph, query)[-1]
        frames = enter(engine, query, [embedding[u] for u in order[:-1]])
        last, father = frames[-1][:2]
        pool = engine.candidates.candidates(last)
        engine._pools = tuple(Watched(p) for p in engine._pools)
        assert engine._single_frame(query.size - 1) is None
        assert engine._pools[last].iterated == 0
        assert engine.stats.kernel_scan == 0 and engine.stats.kernel_merge == 1
        # Only the father's neighbors in the pool are walked, in order.
        chosen = engine._assignment[last]
        localized = engine.candidates.localized(last, engine._assignment[father])
        assert chosen == embedding[last] and len(localized) < len(pool)
        assert engine.stats.nodes_expanded == localized.index(chosen) + 1

    def test_overlap_restricts_to_tcand(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        engine._pools = tuple(Watched(p) for p in engine._pools)
        collected = []
        tcand = {u: {1} for u in range(query.size)}
        engine.run_level(1, tcand, lambda m: (collected.append(m), True)[1])
        # Only node 1 (label b) has a candidate in {v1}; v3's branch is cut.
        assert collected == [(0, 1, 2)]
        # Every frame with a father localized, and every Qovp's root is its
        # overlap node, which walks its cover set, not its pool: no pool is
        # walked, and each Qovp's root still counts one scan.
        roots = [engine.candidates.plan.frames(query, (u,))[0][0] for u in range(query.size)]
        assert roots == [0, 1, 2]
        assert [pool.iterated for pool in engine._pools] == [0] * query.size
        assert engine.stats.kernel_scan == query.size


class Probed(set):
    """An injectivity set that records every vertex probed and holds them all."""

    def __init__(self):
        super().__init__()
        self.probed = []

    def __contains__(self, v):
        self.probed.append(v)
        return True


def shuffled_by_the_frame(n, seed):
    """The order in which a capped single-embedding frame tries a hub's ``n``
    candidate leaves, and its engine's ``Random`` state afterwards.

    The hub (v0) is matched; the leaf's frame has it as father and a cap past
    ``n``. The leaf is the query's last node, so the frame enters no child:
    every leaf reads as used, and the frame probes them all in the order the
    Section 5.2 shuffle left them, then fails blaming the hub's node (a
    query-node bitmask)."""
    graph = LabeledGraph(["a"] + ["b"] * n, [(0, b) for b in range(1, n + 1)])
    query = QueryGraph(["a", "b"], [(0, 1)])
    config = DSQLConfig(k=5, seed=seed, conflict_skipping=False, bad_vertex_skipping=False)
    engine = engine_for(graph, query, config)
    engine.order = (0, 1)
    engine._frames = ((0, NO_FATHER, False, None, ()), (1, 0, False, n + 1, (0,)))
    engine._assignment[0] = 0
    engine._used = Probed()
    assert engine._single_frame(1) == 1 << 0
    return engine._used.probed, engine.rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2016])
def test_the_frames_shuffle_is_the_stdlibs(seed):
    """The frame writes CPython's ``Random.shuffle`` out in place: for every
    length, the same permutation and the same generator state after — so a
    change to the stdlib's shuffle fails here, not in 108 golden digests."""
    for n in range(71):
        want, rng = list(range(1, n + 1)), random.Random(seed)
        rng.shuffle(want)
        assert shuffled_by_the_frame(n, seed) == (want, rng.getstate()), n


class TestBudget:
    def test_charge_raises_past_budget(self, setting):
        graph, query = setting
        engine = engine_for(graph, query, DSQLConfig(k=5, node_budget=2))
        engine._meter.charge()
        engine._meter.charge()
        with pytest.raises(BudgetExceeded):
            engine._meter.charge()
        assert engine.stats.budget_exhausted


class TestRunLevelContract:
    def test_level0_yields_disjoint_embeddings(self, setting):
        graph, query = setting
        matched = set()
        engine = engine_for(graph, query, matched=matched)
        collected = []
        engine.run_level(0, {u: set() for u in range(3)}, lambda m: (collected.append(m), True)[1])
        flat = [v for m in collected for v in m]
        assert len(flat) == len(set(flat))
        assert matched == set(flat)

    def test_callback_stop_honored(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        collected = []

        def stop_after_one(mapping):
            collected.append(mapping)
            return False

        keep = engine.run_level(0, {u: set() for u in range(3)}, stop_after_one)
        assert not keep
        assert len(collected) == 1
