"""Profiling-hook dispatch: every callback fires at its documented point."""

from __future__ import annotations

from collections import Counter

import pytest

import repro.isomorphism.backtrack as search_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.graph.query_graph import QueryGraph
from repro.observability import (
    Instrumentation,
    ProfilingHooks,
    default_instrumentation,
    get_default_instrumentation,
)

from tests.conftest import profiled_calls


class RecordingHooks(ProfilingHooks):
    def __init__(self):
        self.level_starts = []
        self.embeddings = []
        self.swaps = []
        self.ticks = []

    def on_level_start(self, phase, level, query_id=None):
        self.level_starts.append((phase, level, query_id))

    def on_embedding_emitted(self, phase, level, embedding, query_id=None):
        self.embeddings.append((phase, level, tuple(embedding), query_id))

    def on_swap(self, level, benefit, loss, accepted, query_id=None):
        self.swaps.append((level, benefit, loss, accepted, query_id))

    def on_deadline_tick(self, nodes_expanded, remaining_ms, stride, query_id=None):
        self.ticks.append((nodes_expanded, remaining_ms, stride, query_id))


@pytest.fixture()
def swap_case():
    """A deterministic (graph, query, k) where Phase 2 runs real levels.

    Found by scanning the random-instance space: with this seed Phase 1
    hands over an overlapping 6-collection that Lemma 4 cannot dismiss, so
    Phase 2 sweeps two levels and the SWAP-alpha criterion both accepts and
    rejects candidates.
    """
    from tests.conftest import connected_query_from, random_labeled_graph

    graph = random_labeled_graph(30, 2, 0.2, seed=8)
    query = connected_query_from(graph, 3, seed=15)
    return graph, query


def test_phase_hooks_fire(swap_case):
    graph, query = swap_case
    hooks = RecordingHooks()
    config = DSQLConfig(k=6, alpha=0.0, phase2_ratio_target=1.0)
    session = DSQL(graph, config=config, instrumentation=Instrumentation(hooks=hooks))
    result = session.query(query)
    assert result.stats.phase2_ran
    assert result.stats.phase2_swaps >= 1

    phases = {phase for phase, _, _ in hooks.level_starts}
    assert "phase1" in phases and "phase2" in phases
    # Phase 1 emitted at least the k accepted embeddings.
    assert sum(1 for p, *_ in hooks.embeddings if p == "phase1") >= 6
    # Phase 2 evaluated the SWAP-alpha criterion on positive-benefit
    # candidates; the hook sees every decision with its inputs.
    assert hooks.swaps
    accepts = [s for s in hooks.swaps if s[3]]
    assert len(accepts) == result.stats.phase2_swaps
    for level, benefit, loss, accepted, query_id in hooks.swaps:
        assert benefit > 0
        assert accepted == (benefit >= loss)  # alpha = 0
        assert query_id == 0
    assert not hooks.ticks  # no time budget armed


def test_deadline_tick_fires_per_stride(monkeypatch, swap_case):
    graph, query = swap_case
    monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)
    hooks = RecordingHooks()
    config = DSQLConfig(k=3, time_budget_ms=60_000.0)
    session = DSQL(graph, config=config, instrumentation=Instrumentation(hooks=hooks))
    result = session.query(query)
    assert not result.stats.deadline_exhausted
    assert len(hooks.ticks) == result.stats.nodes_expanded
    for nodes_expanded, remaining_ms, stride, _ in hooks.ticks:
        assert stride == 1
        assert remaining_ms > 0
        assert nodes_expanded >= 1


def test_hook_exception_aborts_query(swap_case):
    graph, query = swap_case

    class Tripwire(ProfilingHooks):
        def on_level_start(self, phase, level, query_id=None):
            raise RuntimeError("tripwire")

    session = DSQL(graph, k=3, instrumentation=Instrumentation(hooks=Tripwire()))
    with pytest.raises(RuntimeError, match="tripwire"):
        session.query(query)


def test_optimized_engine_reports_sq_phase(imdb_small):
    from repro.isomorphism.qsearch import QSearchEngine

    graph, query = imdb_small
    hooks = RecordingHooks()
    engine = QSearchEngine(graph, query, instrumentation=Instrumentation(hooks=hooks))
    emitted = sum(1 for _ in engine.embeddings())
    assert emitted > 0
    assert len(hooks.embeddings) == emitted
    assert all(p == "sq" and level == -1 for p, level, _, _ in hooks.embeddings)


def test_default_instrumentation_is_picked_up(swap_case):
    graph, query = swap_case
    hooks = RecordingHooks()
    assert get_default_instrumentation() is None
    with default_instrumentation(Instrumentation(hooks=hooks)) as instr:
        session = DSQL(graph, k=3)
        assert session.instrumentation is instr
        session.query(query)
    assert get_default_instrumentation() is None
    assert hooks.level_starts


def test_no_hook_runs_per_expansion():
    """Instrumentation is free when off because no call site is per-expansion:
    on a ~23k-expansion 6-cycle with every callback counted and a deadline
    armed, calls are bounded by levels + embeddings + stride ticks. One call
    inside ``charge`` would add ``nodes_expanded`` to the left-hand side.

    And nothing else is per-expansion either: an expansion is charged in
    place, so no function under ``src/repro`` — ``charge`` included — is
    entered anywhere near once per expansion, and the meter's slow half runs
    at stride boundaries only."""
    graph = make_dataset("yeast", scale=0.3, seed=0)
    a, b, c = (label for label, _ in Counter(graph.labels).most_common(3))
    cycle = QueryGraph([a, b, a, b, a, c], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    hooks = RecordingHooks()
    config = DSQLConfig(k=16, time_budget_ms=600_000.0)
    session = DSQL(graph, config=config, instrumentation=Instrumentation(hooks=hooks))
    result, entered = profiled_calls(lambda: session.query(cycle))
    stats = result.stats
    assert stats.nodes_expanded >= 10_000 and not stats.deadline_exhausted
    assert max(entered.values()) < stats.nodes_expanded / 2
    assert entered["backtrack.py", "charge"] == 0
    # One arming per engine (two phases) beside the stride boundaries.
    assert 0 < entered["backtrack.py", "check"] - len(hooks.ticks) <= 2
    calls = len(hooks.level_starts) + len(hooks.embeddings) + len(hooks.swaps) + len(hooks.ticks)
    assert len(hooks.ticks) == stats.nodes_expanded // search_mod.DEADLINE_CHECK_STRIDE
    assert calls <= (
        stats.phase1_levels + stats.phase2_levels
        + stats.embeddings_found + 2 * stats.embeddings_generated_phase2
        + len(hooks.ticks)
    )


def test_disabled_sessions_skip_hooks(swap_case):
    graph, query = swap_case
    session = DSQL(graph, k=3)
    assert session.instrumentation is None
    session.query(query)  # nothing to assert beyond "no instrumentation ran"
