"""What every backtracking loop of the library shares.

The paper has one backtracking framework (Algorithm 1); the search loops
built on it — plain SQ, the level-wise DSQL engine, the twin-class search
and the baselines' father-localized DFS — differ in which candidates they
walk, never in how an expansion is paid for or how a failed subtree is
blamed. Those two decisions live here, once:

* :class:`ExpansionMeter` — count one expansion, trip the node budget, and
  probe the wall-clock deadline every :data:`DEADLINE_CHECK_STRIDE`
  expansions;
* :class:`ConflictDirectedSearch` — the Section 5.3 conflict set and the
  child-failure rule (Section 5.3 backjump test, Section 5.4 bad-vertex
  mark) over the assignment state both conflict-directed engines keep.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.exceptions import BudgetExceeded, DeadlineExceeded
from repro.isomorphism.joinable import UNMATCHED

DEADLINE_CHECK_STRIDE = 1024
"""Expansions between wall-clock deadline checks.

``time.monotonic()`` costs roughly as much as one expansion step, so probing
it on every charge would measurably slow the hot path; probing every
:data:`DEADLINE_CHECK_STRIDE` expansions keeps the overhead under 0.1% while
bounding deadline overshoot to one stride's worth of work.

:meth:`ExpansionMeter.charge` is the only reader and reads it live at check
time (so tests can monkeypatch it); instrumentation surfaces it as the
``deadline.check_stride`` gauge and the ``stride`` field of
``on_deadline_tick`` / deadline trace events.
"""


class ExpansionMeter:
    """The one place an expansion is counted and a budget or deadline trips.

    Parameters
    ----------
    sink:
        Where the counts live: any object with ``nodes_expanded`` and
        ``budget_exhausted`` (and ``deadline_exhausted`` when a deadline is
        armed) — an engine, or the :class:`~repro.core.state.SearchStats`
        two DSQL phases share. ``None`` keeps them on the meter itself.
    node_budget:
        Maximum expansions before :meth:`charge` raises
        :class:`BudgetExceeded`; ``None`` disables.
    deadline:
        Absolute ``time.monotonic()`` timestamp after which :meth:`charge`
        raises :class:`DeadlineExceeded`; ``None`` disables.
    instrumentation, query_id:
        Optional :class:`~repro.observability.Instrumentation`, touched only
        on the (rare) stride branch, and the id stamped onto its ticks.
    """

    __slots__ = (
        "sink",
        "node_budget",
        "deadline",
        "instrumentation",
        "query_id",
        "nodes_expanded",
        "budget_exhausted",
        "deadline_exhausted",
    )

    def __init__(
        self,
        sink=None,
        node_budget: Optional[int] = None,
        deadline: Optional[float] = None,
        instrumentation=None,
        query_id: Optional[int] = None,
    ) -> None:
        self.sink = self if sink is None else sink
        self.node_budget = node_budget
        self.deadline = deadline
        self.instrumentation = instrumentation
        self.query_id = query_id
        self.nodes_expanded = 0
        self.budget_exhausted = False
        self.deadline_exhausted = False

    def charge(self) -> None:
        """Pay for one candidate expansion."""
        sink = self.sink
        sink.nodes_expanded += 1
        budget = self.node_budget
        if budget is not None and sink.nodes_expanded > budget:
            sink.budget_exhausted = True
            raise BudgetExceeded(f"node budget {budget} exhausted")
        if self.deadline is not None and sink.nodes_expanded % DEADLINE_CHECK_STRIDE == 0:
            now = time.monotonic()
            if self.instrumentation is not None:
                self.instrumentation.deadline_tick(
                    sink.nodes_expanded,
                    (self.deadline - now) * 1000.0,
                    DEADLINE_CHECK_STRIDE,
                    self.query_id,
                )
            if now >= self.deadline:
                sink.deadline_exhausted = True
                raise DeadlineExceeded(
                    f"time budget exhausted after {sink.nodes_expanded} expansions"
                )


class ConflictDirectedSearch:
    """Assignment state plus the Section 5.3/5.4 rules over it.

    Base of :class:`~repro.isomorphism.qsearch.QSearchEngine` and
    :class:`~repro.core.search.LevelSearchEngine`. ``counts`` receives
    ``conflict_skips`` / ``bad_vertices_marked`` (the engine itself, or the
    shared ``SearchStats``); the three switches are the strategies of
    Sections 5.3, 5.4 and Appendix B.3. Subclasses keep ``order`` — the
    query nodes in the order the current frames search them.
    """

    def __init__(
        self,
        query,
        candidates,
        counts,
        conflict_backjumping: bool,
        bad_vertex_skipping: bool,
        relaxed_bad_vertices: bool = False,
    ) -> None:
        self.query = query
        self.candidates = candidates
        self._counts = counts
        self.conflict_backjumping = conflict_backjumping
        self.bad_vertex_skipping = bad_vertex_skipping
        self.relaxed_bad_vertices = relaxed_bad_vertices
        self._reset_assignment()

    def _reset_assignment(self) -> None:
        q = self.query.size
        self._assignment: List[int] = [UNMATCHED] * q
        self._used: Set[int] = set()
        # Bad marks carry the conflict set that justified them: a skipped
        # vertex is a failure whose reasons must still propagate upward,
        # otherwise ancestors compute understated conflict sets and prune
        # subtrees that a changed ancestor assignment would have revived.
        self._bad: List[Dict[int, Set[int]]] = [{} for _ in range(q + 1)]

    def _conflict_set(self, u: int) -> Set[int]:
        """``CT(u, *) ∪ CT(u, beta)`` for a failure at node ``u``.

        Static part: query neighbors of ``u``. Dynamic part: assigned nodes
        whose matched vertex would pass ``u``'s label/degree/signature
        filters (it may be exactly the vertex ``u`` needed).
        """
        conflicts: Set[int] = set(self.query.neighbors(u))
        full_check = self.candidates.full_check
        for u2, v2 in enumerate(self._assignment):
            if u2 != u and v2 != UNMATCHED and u2 not in conflicts:
                if full_check(u, v2):
                    conflicts.add(u2)
        return conflicts

    def _child_failed(self, depth: int, u: int, v: int, conflict: Set[int]) -> bool:
        """Bookkeeping for a failed subtree under ``u -> v``; ``True`` to
        backjump past ``u``.

        Implements the Section 5.3 skip test and the Section 5.4 bad-vertex
        marking (with the Appendix B.3 relaxation when configured).
        """
        if self.conflict_backjumping and u not in conflict:
            self._counts.conflict_skips += 1
            return True
        if self.bad_vertex_skipping and (
            self.relaxed_bad_vertices
            or (depth > 0 and self.order[depth - 1] not in conflict)
        ):
            self._bad[depth][v] = set(conflict)
            self._counts.bad_vertices_marked += 1
        return False
