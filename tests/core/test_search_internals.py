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


class TestConflictSet:
    def test_static_part_is_query_neighbors(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        conflicts = engine._conflict_set(1, 0, set())
        assert {0, 2} <= conflicts

    def test_dynamic_part_catches_held_candidates(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        # Node 2 wants a "c" vertex; assign node 0 a vertex that could never
        # be node 2's candidate (label a) -> no dynamic conflict beyond
        # static. Now hold v2 (a valid c-candidate) under node 0's slot by
        # faking the assignment state (the assigned nodes are order[:depth]):
        engine.order = (0, 1, 2)
        engine._assignment[0] = 2  # vertex v2 has label c
        conflicts = engine._conflict_set(2, 1, set())
        assert 0 in conflicts  # v2 passes node 2's filters -> dynamic conflict
        engine._assignment[0] = 0  # v0 has label a
        assert 0 not in engine._conflict_set(2, 1, set())
        engine._assignment[0] = UNMATCHED

    def test_dynamic_part_is_the_full_filter_stack_whatever_the_pools_hold(self, setting):
        """Pool membership answers CT(u, beta) because the pools are the
        full stack — there is no view with a filter off: a held vertex is
        blamed exactly when it passes the failed node's label + degree +
        signature filters, recomputed here from the cache's tables."""
        graph, query = setting
        engine = engine_for(graph, query)
        engine.order = (0, 1, 2)
        for u in (1, 2):
            static = set(query.neighbors(u))
            for held in range(graph.num_vertices):
                engine._assignment[0] = held
                dynamic = {0} if passes_filter_stack(graph, query, u, held) else set()
                assert engine._conflict_set(u, 1, set()) == (static | dynamic) - {u}, (u, held)
        engine._assignment[0] = UNMATCHED

    def test_failure_set_excludes_self(self, setting):
        graph, query = setting
        engine = engine_for(graph, query)
        blamed = {1, 7}  # what failed children blamed: extended, not copied
        conflicts = engine._conflict_set(1, 0, blamed)
        assert conflicts is blamed
        assert 1 not in conflicts and 7 in conflicts


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
        # Every frame with a father localized: each Qovp walked its root's
        # pool once and no other.
        roots = [engine.candidates.plan.frames(query, (u,))[0][0] for u in range(query.size)]
        assert [pool.iterated for pool in engine._pools] == [
            roots.count(u) for u in range(query.size)
        ]


def shuffled_by_the_frame(n, seed):
    """The order in which a capped single-embedding frame tries a hub's ``n``
    candidate leaves, and its engine's ``Random`` state afterwards.

    The hub (v0) is matched; the leaf's frame has it as father and a cap past
    ``n``, and its child fails every candidate, so the frame tries them all
    in the order the Section 5.2 shuffle left them."""
    graph = LabeledGraph(["a"] + ["b"] * n, [(0, b) for b in range(1, n + 1)])
    query = QueryGraph(["a", "b"], [(0, 1)])
    config = DSQLConfig(k=5, seed=seed, conflict_skipping=False, bad_vertex_skipping=False)
    engine = engine_for(graph, query, config)
    engine.order = (0, 1)
    engine._frames = ((0, NO_FATHER, False, None, ()), (1, 0, False, n + 1, (0,)))
    engine._assignment[0] = 0
    engine._used.add(0)
    frame, tried = engine._single_frame, []

    def failing_child(depth):
        if depth == 2:
            tried.append(engine._assignment[1])
            return {0}
        return frame(depth)

    engine._single_frame = failing_child  # the frame recurses through the instance
    assert engine._single_frame(1) == {0}
    return tried, engine.rng.getstate()


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
