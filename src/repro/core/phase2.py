"""DSQL Phase 2 — the swapping phase (Algorithm 5, Section 6.2).

Phase 2 resumes the level-wise generation at the level where Phase 1 stopped
and feeds every generated embedding ``h`` to the SWAPα criterion
(Inequality 2): ``h`` replaces the minimum-loss member ``f`` of the current
solution ``T`` when ``B(h, T) >= (1 + alpha) * L(f, T)``.

Two Phase-1 fidelity points carry over:

* ``TcandS`` is always derived from ``T1``, the Phase-1 solution snapshot,
  not from the evolving ``T`` (Algorithm 5 line 5);
* generation keeps consuming fresh vertices via the shared ``matched`` set,
  exactly "as in the first phase" — each prefix yields one candidate
  embedding and its fresh vertices are never re-proposed.

**Early termination (Lemma 4)** stops the phase when both hold:

1. ``V(T1) ⊆ V(T)`` — nothing of the generating snapshot has been lost, so
   every future embedding at level ``j`` overlaps ``V(T)`` at >= ``j``
   vertices and benefits at most ``q - j``;
2. every member's loss satisfies ``L(f, T) >= (q - j) / (1 + alpha)`` — so
   no future benefit can satisfy the swap criterion.

Both points generalize through the objective seam: benefit/loss are the
objective's weighted element quantities, and the ``q - j`` future-benefit
cap becomes :meth:`~repro.coverage.objectives.Objective.
future_benefit_bound` (``q - j`` for vertex, the ``q - j`` largest per-node
maxima ``max w(candS(u))`` for weighted-vertex, the level-independent
``|E(Q)|`` for edge — and ``None`` forfeits early termination entirely).
*Generation* stays vertex-structured for every objective: levels, the
``matched`` set, and ``TcandS`` all count vertex overlap, exactly as Phase 1
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.core.config import DSQLConfig
from repro.core.phase1 import Phase1Output, tcand_snapshot
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats
from repro.coverage.core import CoverageTracker
from repro.coverage.objectives import Objective, VertexCoverage
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.match import Mapping


@dataclass
class Phase2Output:
    """Result of DSQL-P2: the final solution after swapping."""

    embeddings: List[Mapping]
    coverage: int
    early_terminated: bool = False
    swaps: int = 0
    levels_run: int = 0


def run_phase2(
    graph: LabeledGraph,
    query: QueryGraph,
    config: DSQLConfig,
    candidates: CandidateIndex,
    phase1: Phase1Output,
    stats: SearchStats,
    deadline: Optional[float] = None,
    instrumentation=None,
    query_id: Optional[int] = None,
    plan=None,
    objective: Optional[Objective] = None,
) -> Phase2Output:
    """Execute DSQL-P2 starting from the Phase-1 solution.

    Precondition (checked by the dispatcher): ``|T| == k`` — Phase 1 only
    hands over a full collection; undersized collections are already optimal.
    ``objective`` selects the coverage objective (``None`` = the paper's
    vertex coverage, bound to this query's ``q``). ``plan`` is the plan
    ``candidates`` views, as in :func:`~repro.core.phase1.run_phase1`.
    ``instrumentation`` brackets every level (``phase2.level`` spans and the
    ``phase2.level_expansions`` histogram) and reports every generated
    embedding (``on_embedding_emitted``) and every SWAPα decision on a
    positive-benefit candidate (``on_swap`` / ``phase2.swap_reject``).
    """
    stats.phase2_ran = True
    q = query.size
    alpha = config.alpha
    if objective is None:
        objective = VertexCoverage(q=q)
    t1_cover: FrozenSet[int] = frozenset(phase1.state.covered)
    instr = instrumentation

    tracker = CoverageTracker(objective=objective)
    slot_to_mapping: Dict[int, Mapping] = {}
    for mapping in phase1.state.embeddings:
        slot = tracker.add(mapping)
        slot_to_mapping[slot] = mapping

    engine = LevelSearchEngine(
        graph,
        query,
        candidates,
        config,
        stats,
        phase1.state.matched,
        deadline=deadline,
        instrumentation=instrumentation,
        query_id=query_id,
    )
    # TcandS comes from T1 for the entire phase (Algorithm 5 line 5).
    tcand = tcand_snapshot(plan or candidates.plan, t1_cover, q)

    out = Phase2Output(
        embeddings=list(phase1.state.embeddings), coverage=tracker.coverage
    )

    def termination_reached(level: int) -> bool:
        # The V(T1) ⊆ V(T) premise only types when the tracker's elements
        # *are* vertices; otherwise the bound must hold unconditionally
        # (edge objective) or early termination is off (bound = None).
        preserved = objective.vertex_elements and tracker.covers_all(t1_cover)
        bound = objective.future_benefit_bound(level, preserved)
        if bound is None:
            return False
        # Every loss clears the threshold iff the smallest does — which the
        # tracker holds between swaps.
        return tracker.min_loss_member()[1] >= bound / (1.0 + alpha)

    current_level = phase1.level

    def on_embedding(mapping: Mapping) -> bool:
        stats.embeddings_generated_phase2 += 1
        if instr is not None:
            instr.embedding_emitted("phase2", current_level, mapping, query_id)
        b = tracker.benefit(mapping)
        if b > 0:
            slot, f_loss = tracker.min_loss_member()
            accepted = b >= (1.0 + alpha) * f_loss
            if accepted:
                tracker.remove(slot)
                del slot_to_mapping[slot]
                new_slot = tracker.add(mapping)
                slot_to_mapping[new_slot] = mapping
                stats.phase2_swaps += 1
                out.swaps += 1
            if instr is not None:
                instr.swap_decision(current_level, b, f_loss, accepted, query_id)
        if termination_reached(current_level):
            stats.phase2_early_termination = True
            out.early_terminated = True
            return False
        return True

    try:
        for level in range(phase1.level, q):
            current_level = level
            out.levels_run += 1
            stats.phase2_levels = out.levels_run
            if termination_reached(level):
                stats.phase2_early_termination = True
                out.early_terminated = True
                break
            if instr is not None:
                level_start_ms = instr.level_start("phase2", level, query_id)
                level_exp = stats.nodes_expanded
            try:
                keep = engine.run_level(level, tcand, on_embedding)
            finally:
                if instr is not None:
                    instr.level_end(
                        "phase2",
                        level,
                        query_id,
                        level_start_ms,
                        expansions=stats.nodes_expanded - level_exp,
                        added=out.swaps,
                    )
            if not keep:
                break
    except BudgetExceeded:
        pass

    out.embeddings = [slot_to_mapping[slot] for slot in tracker.slots()]
    # A weighted running total carries each swap's rounding; the reported
    # coverage is a function of the answer alone.
    out.coverage = (
        tracker.coverage
        if objective.unit_weights
        else objective.collection_coverage(out.embeddings)
    )
    return out
