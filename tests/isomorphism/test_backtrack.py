"""``ExpansionMeter`` against the rule it replaced, written out.

The meter counts and compares with one precomputed trip point; the rule it
must reproduce is "count; ``> budget`` raises; ``% stride == 0`` probes",
applied at every single charge. The model below applies that literal rule
and the meter has to agree charge by charge — exception type, count, flags
and ``deadline_tick`` arguments — from any starting count (phase 2's meter
starts mid-count on phase 1's statistics).
"""

from __future__ import annotations

import itertools
import time
import types

import pytest

import repro.isomorphism.backtrack as backtrack
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.phase1 import run_phase1
from repro.core.state import SearchStats
from repro.exceptions import BudgetExceeded, DeadlineExceeded
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.backtrack import ExpansionMeter
from repro.observability import Instrumentation

from tests.conftest import connected_query_from, random_labeled_graph

BUDGETS = (None, 0, 1, 5, 1023, 1024, 1025)
STRIDES = (1, 7, 1024)
STARTS = (0, 3, 1023, 1024)
DEADLINES = (None, "past", "future")
CHARGES = 2 * 1024 + 60  # crosses two boundaries of the widest stride from any start


class Ticks:
    """Stands in for an ``Instrumentation``: records ``deadline_tick`` calls."""

    def __init__(self):
        self.seen = []

    def deadline_tick(self, nodes_expanded, remaining_ms, stride, query_id):
        self.seen.append((nodes_expanded, remaining_ms > 0, stride, query_id))


def old_rule(budget, stride, start, deadline):
    """Per charge: ``(raised, count, budget flag, deadline flag, ticks so far)``."""
    count, budget_flag, deadline_flag, ticks = start, False, False, []
    for _ in range(CHARGES):
        count += 1
        raised = None
        if budget is not None and count > budget:
            budget_flag, raised = True, BudgetExceeded
        elif deadline is not None and count % stride == 0:
            ticks.append((count, deadline == "future", stride, 9))
            if deadline == "past":
                deadline_flag, raised = True, DeadlineExceeded
        yield raised, count, budget_flag, deadline_flag, len(ticks)
    yield ticks


@pytest.mark.parametrize("stride", STRIDES)
def test_meter_trips_where_the_written_out_rule_does(stride, monkeypatch):
    monkeypatch.setattr(backtrack, "DEADLINE_CHECK_STRIDE", stride)  # before construction
    now = time.monotonic()
    stamps = {None: None, "past": now - 1.0, "future": now + 3600.0}
    for budget, start, deadline in itertools.product(BUDGETS, STARTS, DEADLINES):
        sink = types.SimpleNamespace(
            nodes_expanded=start, budget_exhausted=False, deadline_exhausted=False
        )
        ticks = Ticks()
        meter = ExpansionMeter(sink, budget, stamps[deadline], ticks, query_id=9)
        *steps, want_ticks = old_rule(budget, stride, start, deadline)
        for want in steps:
            raised = None
            try:
                meter.charge()
            except BudgetExceeded as error:  # DeadlineExceeded is a subclass
                raised = type(error)
            got = (
                raised, sink.nodes_expanded, sink.budget_exhausted,
                sink.deadline_exhausted, len(ticks.seen),
            )
            assert got == want, (budget, stride, start, deadline)
        assert ticks.seen == want_ticks
        if budget is None and deadline is None:
            assert meter.trip > sink.nodes_expanded  # armed once, never entered again


def test_meter_without_a_sink_counts_on_itself():
    meter = ExpansionMeter(node_budget=2)
    meter.charge()
    meter.charge()
    with pytest.raises(BudgetExceeded):
        meter.charge()
    assert (meter.nodes_expanded, meter.budget_exhausted) == (3, True)
    assert not meter.deadline_exhausted


class TickRecorder(Instrumentation):
    """A registry that also records where each stride tick landed."""

    def __init__(self):
        super().__init__()
        self.ticks = []

    def deadline_tick(self, nodes_expanded, remaining_ms, stride, query_id=None):
        self.ticks.append(nodes_expanded)
        super().deadline_tick(nodes_expanded, remaining_ms, stride, query_id)


@pytest.fixture()
def swap_case():
    """Phase 2 runs real levels here (see ``tests/observability/test_hooks.py``)."""
    graph = random_labeled_graph(30, 2, 0.2, seed=8)
    return graph, connected_query_from(graph, 3, seed=15)


def test_two_phases_tick_at_every_multiple_of_the_stride(swap_case, monkeypatch):
    """Phase 2's meter is built at a count that is no multiple of the stride
    and ticks at the *next* multiple: one query, one unbroken series."""
    stride = 7
    monkeypatch.setattr(backtrack, "DEADLINE_CHECK_STRIDE", stride)
    graph, query = swap_case
    config = DSQLConfig(k=6, alpha=0.0, phase2_ratio_target=1.0, time_budget_ms=600_000.0)
    handover = SearchStats()
    run_phase1(graph, query, config, CandidateIndex(graph, query), handover)
    assert handover.nodes_expanded % stride

    instr = TickRecorder()
    session = DSQL(graph, config=config, instrumentation=instr)
    stats = session.query(query).stats
    assert stats.phase2_ran and stats.nodes_expanded > handover.nodes_expanded + stride
    assert instr.ticks == list(range(stride, stats.nodes_expanded + 1, stride))
    assert session.instrumentation.metrics.snapshot()["deadline.ticks"] == (
        stats.nodes_expanded // stride
    )


def test_budget_wins_where_budget_and_stride_coincide(swap_case, monkeypatch):
    stride = 7
    monkeypatch.setattr(backtrack, "DEADLINE_CHECK_STRIDE", stride)
    graph, query = swap_case
    instr = TickRecorder()
    config = DSQLConfig(k=6, node_budget=2 * stride - 1, time_budget_ms=600_000.0)
    session = DSQL(graph, config=config, instrumentation=instr)
    stats = session.query(query).stats
    # Expansion 14 is past the budget *and* on the stride: it raises, unprobed.
    assert stats.nodes_expanded == 2 * stride
    assert stats.budget_exhausted and not stats.deadline_exhausted
    assert instr.ticks == [stride]
