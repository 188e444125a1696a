"""DSQL Phase 1 — the non-swapping, level-wise collection (Algorithm 3).

Starting from an empty solution ``T``, level ``i`` (for ``i = 0 .. q-1``)
admits embeddings overlapping ``V(T)`` at exactly ``i`` vertices; the phase
stops the moment ``|T| = k`` (early termination) or when all levels are
exhausted. Stopping at level ``i`` guarantees the Theorem 3 ratio
``(q - i)/q + i/(kq)``; exhausting all levels with ``|T| < k`` yields an
optimal solution.

Phase 1 is *objective-independent by design*: levels, the shared
``matched`` set, and the candidate snapshots all count **vertex** overlap
regardless of ``config.objective``, because they describe how embeddings
are *generated*, not how they are valued (Section 3's structure). The
objective seam (:mod:`repro.coverage.objectives`) only changes selection —
benefit/loss/coverage in Phase 2 and the dispatcher — so this module takes
no objective parameter. Consequences for non-vertex objectives (e.g. the
``exhausted`` certificate surviving only when vertex exhaustion implies
element exhaustion) are handled where the certificates are issued, in
:mod:`repro.core.dsql`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional

from repro.core.config import DSQLConfig
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats, SolutionState
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.match import Mapping


@dataclass
class Phase1Output:
    """Result of DSQL-P1.

    Attributes
    ----------
    state:
        Solution state holding ``T`` and ``V(T)``; Phase 2 continues from it.
    level:
        The level at which the phase stopped (``q - 1`` when exhausted).
    exhausted:
        ``True`` when every level completed without reaching ``k`` — the
        Theorem 3 optimality case.
    qlist:
        The selectivity ranking, reused by Phase 2.
    """

    state: SolutionState
    level: int
    exhausted: bool
    qlist: List[int]


def tcand_snapshot(plan, covered: AbstractSet[int], q: int) -> Dict[int, FrozenSet[int]]:
    """``TcandS[u] = candS(u) ∩ V(T)`` for every query node (Alg. 3 line 9).

    Intersects against the set views kept on the plan's pool entries, at
    ``O(min(|pool|, |cover|))`` per node; an entry asked for the first
    time builds its view (:meth:`~repro.indexes.plans.QueryPlan.pool_set`).
    """
    return {u: plan.pool_set(u) & covered for u in range(q)}


def level_snapshot(
    plan, covered: AbstractSet[int], q: int, level: int
) -> Dict[int, FrozenSet[int]]:
    """The ``TcandS`` level ``level`` reads: :func:`tcand_snapshot` from
    level 1 on, and ``{}`` at level 0, whose only ``Qovp`` is empty — no
    overlap node reads it, so no pool's set view is asked for."""
    return tcand_snapshot(plan, covered, q) if level else {}


def run_phase1(
    graph: LabeledGraph,
    query: QueryGraph,
    config: DSQLConfig,
    candidates: CandidateIndex,
    stats: SearchStats,
    deadline: Optional[float] = None,
    instrumentation=None,
    query_id: Optional[int] = None,
    plan=None,
) -> Phase1Output:
    """Execute DSQL-P1 and return the collected solution.

    The engine's ``matched`` set is aliased with the solution's so that
    accepted embeddings immediately consume their vertices (Q1Search
    difference (3)). ``deadline`` is the query-wide monotonic timestamp
    derived from ``config.time_budget_ms`` (``None`` disables).
    ``instrumentation`` brackets every level (``phase1.level`` spans, whose
    ``added`` field counts the level's accepted embeddings, and the
    ``phase1.level_expansions`` histogram). ``plan`` is the
    compiled :class:`~repro.indexes.plans.QueryPlan` that ``candidates``
    views — callers already holding it may hand it in, it is never a
    different plan — and supplies the selectivity ranking (``qList``) and
    the cover snapshots.
    """
    plan = plan or candidates.plan
    qlist = list(plan.qlist)
    state = SolutionState()
    engine = LevelSearchEngine(
        graph,
        query,
        candidates,
        config,
        stats,
        state.matched,
        deadline=deadline,
        instrumentation=instrumentation,
        query_id=query_id,
    )
    q = query.size
    instr = instrumentation

    if candidates.any_empty():
        # No embedding can exist; the empty solution is trivially optimal.
        stats.phase1_levels = 0
        return Phase1Output(state=state, level=q - 1, exhausted=True, qlist=qlist)

    current_level = 0

    def on_embedding(mapping: Mapping) -> bool:
        state.add(mapping)
        stats.record_added(current_level)
        return len(state) < config.k

    def close_level(level: int, start_ms: float, before_exp: int, before_n: int) -> None:
        instr.level_end(
            "phase1",
            level,
            query_id,
            start_ms,
            expansions=stats.nodes_expanded - before_exp,
            added=len(state) - before_n,
        )

    try:
        for level in range(q):
            current_level = level
            stats.phase1_levels = level + 1
            if instr is not None:
                level_start_ms = instr.level_start("phase1", level, query_id)
                level_exp, level_n = stats.nodes_expanded, len(state)
            try:
                while True:
                    before = len(state)
                    tcand = level_snapshot(plan, state.covered, q, level)
                    keep = engine.run_level(level, tcand, on_embedding)
                    if not keep:
                        return Phase1Output(
                            state=state, level=level, exhausted=False, qlist=qlist
                        )
                    # One sweep suffices unless strict maximality is requested;
                    # re-sweep only while a sweep keeps adding embeddings.
                    if not config.exhaustive_level or len(state) == before:
                        break
            finally:
                if instr is not None:
                    close_level(level, level_start_ms, level_exp, level_n)
    except BudgetExceeded:
        return Phase1Output(
            state=state, level=current_level, exhausted=False, qlist=qlist
        )
    return Phase1Output(state=state, level=q - 1, exhausted=True, qlist=qlist)
