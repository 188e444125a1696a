"""Engine events, as the metrics and spans that carry them.

A DSQL level is a ``phase1.level`` / ``phase2.level`` span and a
``*.level_expansions`` histogram; a SWAPα decision is a
``phase2.swap_accept`` / ``phase2.swap_reject`` count; a deadline stride
check is ``deadline.ticks`` beside the ``deadline.check_stride`` gauge; a
plain-SQ enumeration is ``sq.embeddings_emitted``. Each test below pins one
of those where the engine emits it.
"""

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
    ListSink,
    Tracer,
    default_instrumentation,
    get_default_instrumentation,
)

from tests.conftest import profiled_calls


def traced():
    """An ``Instrumentation`` with a fresh registry and a ``ListSink`` tracer."""
    return Instrumentation(tracer=Tracer(ListSink()))


def events(instr, name):
    return [e for e in instr.tracer.sink.events if e["name"] == name]


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
    instr = traced()
    config = DSQLConfig(k=6, alpha=0.0, phase2_ratio_target=1.0)
    session = DSQL(graph, config=config, instrumentation=instr)
    result = session.query(query)
    assert result.stats.phase2_ran
    assert result.stats.phase2_swaps >= 1

    phase1, phase2 = events(instr, "phase1.level"), events(instr, "phase2.level")
    assert phase1 and phase2
    assert {e["query_id"] for e in phase1 + phase2} == {0}
    # Phase 1 accepted at least the k embeddings, level by level.
    assert sum(e["fields"]["added"] for e in phase1) >= config.k
    # Every SWAP-alpha decision on a positive-benefit candidate is counted:
    # the fixture both accepts and rejects.
    snapshot = instr.metrics.snapshot()
    assert snapshot["phase2.swap_accept"] == result.stats.phase2_swaps
    assert snapshot["phase2.swap_reject"] >= 1
    assert "deadline.ticks" not in snapshot  # no time budget armed


def test_deadline_tick_fires_per_stride(monkeypatch, swap_case):
    graph, query = swap_case
    monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)
    instr = traced()
    config = DSQLConfig(k=3, time_budget_ms=60_000.0)
    session = DSQL(graph, config=config, instrumentation=instr)
    result = session.query(query)
    assert not result.stats.deadline_exhausted
    snapshot = instr.metrics.snapshot()
    assert snapshot["deadline.ticks"] == result.stats.nodes_expanded
    assert snapshot["deadline.check_stride"] == 1
    (margin,) = events(instr, "deadline.margin")
    assert margin["fields"]["remaining_ms"] > 0


def test_hook_exception_aborts_query(swap_case):
    """A sink that raises aborts the query with its exception (no swallowing)."""
    graph, query = swap_case

    class Tripwire(ListSink):
        def write(self, event):
            if event["name"] == "phase1.level":
                raise RuntimeError("tripwire")
            super().write(event)

    session = DSQL(graph, k=3, instrumentation=Instrumentation(tracer=Tracer(Tripwire())))
    with pytest.raises(RuntimeError, match="tripwire"):
        session.query(query)


def test_optimized_engine_reports_sq_phase(imdb_small):
    from repro.isomorphism.qsearch import QSearchEngine

    graph, query = imdb_small
    instr = Instrumentation()
    engine = QSearchEngine(graph, query, instrumentation=instr)
    emitted = sum(1 for _ in engine.embeddings())
    assert emitted > 0
    assert instr.metrics.snapshot()["sq.embeddings_emitted"] == emitted


def test_default_instrumentation_is_picked_up(swap_case):
    graph, query = swap_case
    assert get_default_instrumentation() is None
    with default_instrumentation(traced()) as instr:
        session = DSQL(graph, k=3)
        assert session.instrumentation is instr
        session.query(query)
    assert get_default_instrumentation() is None
    assert events(instr, "phase1.level")


# What one event costs the observability package, in calls: a level is its
# bracket, histogram and span (10); a stride tick its counter and gauge (7).
# A query's own spans, margin point and stats flush stay under QUERY_CALLS
# calls and QUERY_EVENTS trace events.
LEVEL_CALLS, TICK_CALLS, QUERY_CALLS, QUERY_EVENTS = 10, 7, 96, 6


def test_no_hook_runs_per_expansion():
    """Instrumentation is free when off because no call site is per-expansion:
    on a ~23k-expansion 6-cycle with a registry and a tracer attached and a
    deadline armed, the observability package is entered per level, per
    stride tick and per query only, and the trace holds one event per level
    beside the query's own. One call inside ``charge`` would add
    ``nodes_expanded`` to the left-hand side; one per accepted embedding, 16.

    And nothing else is per-expansion either: an expansion is charged in
    place, so no function under ``src/repro`` — ``charge`` included — is
    entered anywhere near once per expansion, and the meter's slow half runs
    at stride boundaries only."""
    graph = make_dataset("yeast", scale=0.3, seed=0)
    a, b, c = (label for label, _ in Counter(graph.labels).most_common(3))
    cycle = QueryGraph([a, b, a, b, a, c], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    config = DSQLConfig(k=16, time_budget_ms=600_000.0)
    instr = traced()
    # A first query registers every instrument, so the counted one pays only
    # for its events.
    DSQL(graph, config=config, instrumentation=instr).query(cycle)
    instr.tracer.sink.events.clear()
    before = instr.metrics.snapshot()["deadline.ticks"]
    session = DSQL(graph, config=config, instrumentation=instr)
    result, observed = profiled_calls(lambda: session.query(cycle), under="observability")
    stats = result.stats
    assert stats.nodes_expanded >= 10_000 and not stats.deadline_exhausted
    levels = stats.phase1_levels + stats.phase2_levels
    ticks = instr.metrics.snapshot()["deadline.ticks"] - before
    assert ticks == stats.nodes_expanded // search_mod.DEADLINE_CHECK_STRIDE
    assert observed["__init__.py", "deadline_tick"] == ticks
    assert sum(observed.values()) <= LEVEL_CALLS * levels + TICK_CALLS * ticks + QUERY_CALLS
    assert len(instr.tracer.sink.events) <= levels + QUERY_EVENTS

    rerun = DSQL(graph, config=config, instrumentation=Instrumentation())
    again, entered = profiled_calls(lambda: rerun.query(cycle))
    assert again.stats == stats
    assert max(entered.values()) < stats.nodes_expanded / 2
    assert entered["backtrack.py", "charge"] == 0
    # One arming per engine (two phases) beside the stride boundaries.
    assert 0 < entered["backtrack.py", "check"] - ticks <= 2


def test_disabled_sessions_skip_hooks(swap_case):
    graph, query = swap_case
    session = DSQL(graph, k=3)
    assert session.instrumentation is None
    _, observed = profiled_calls(lambda: session.query(query), under="observability")
    assert not observed
