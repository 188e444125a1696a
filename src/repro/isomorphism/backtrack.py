"""What every backtracking loop of the library shares.

The paper has one backtracking framework (Algorithm 1); the search loops
built on it — plain SQ, the level-wise DSQL engine and the baselines'
father-localized DFS — differ in which candidates they
walk, never in how an expansion is paid for or how a failed subtree is
blamed. Those two decisions live here, once:

* :class:`ExpansionMeter` — count one expansion and compare the count with
  one precomputed trip point; only at a trip point is the node budget
  tested and, every :data:`DEADLINE_CHECK_STRIDE` expansions, the
  wall-clock deadline probed;
* :class:`ConflictDirectedSearch` — the Section 5.3 conflict set and the
  child-failure rule (Section 5.3 backjump test, Section 5.4 bad-vertex
  mark) over the assignment state both conflict-directed engines keep.
"""

from __future__ import annotations

import sys
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

:meth:`ExpansionMeter.check` is the only reader and reads it each time the
meter arms — on its first charge and after every check — so a monkeypatch
made before a search starts decides every probe of that search, and one made
mid-search lands at the next trip point. Instrumentation surfaces it as the
``deadline.check_stride`` gauge.
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

    Attributes
    ----------
    trip:
        The next count at which anything can happen: ``node_budget + 1`` or,
        with a deadline armed, the next multiple of the stride, whichever
        comes first. Below it an expansion is ``count += 1`` and one
        comparison — which a hot loop may spell in place, calling
        :meth:`check` itself — so arming and raising stay here alone. It
        starts at 0: the first charge arms, wherever the sink's count stands
        by then (phase 2's meter starts mid-count on phase 1's statistics).
    """

    __slots__ = (
        "sink",
        "node_budget",
        "deadline",
        "instrumentation",
        "query_id",
        "trip",
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
        self.trip = 0
        self.nodes_expanded = 0
        self.budget_exhausted = False
        self.deadline_exhausted = False

    def charge(self) -> None:
        """Pay for one candidate expansion."""
        sink = self.sink
        sink.nodes_expanded = count = sink.nodes_expanded + 1
        if count >= self.trip:
            self.check()

    def check(self) -> None:
        """The slow half of a charge, run when the count reaches :attr:`trip`:
        trip the budget, probe the deadline on a stride boundary, re-arm."""
        sink = self.sink
        count = sink.nodes_expanded
        budget = self.node_budget
        if budget is not None and count > budget:
            sink.budget_exhausted = True
            raise BudgetExceeded(f"node budget {budget} exhausted")
        trip = sys.maxsize if budget is None else budget + 1
        if self.deadline is not None:
            stride = DEADLINE_CHECK_STRIDE
            if count % stride == 0:
                now = time.monotonic()
                if self.instrumentation is not None:
                    self.instrumentation.deadline_tick(
                        count, (self.deadline - now) * 1000.0, stride, self.query_id
                    )
                if now >= self.deadline:
                    sink.deadline_exhausted = True
                    raise DeadlineExceeded(
                        f"time budget exhausted after {count} expansions"
                    )
            trip = min(trip, count - count % stride + stride)
        self.trip = trip


class ConflictDirectedSearch:
    """Assignment state plus the Section 5.3/5.4 rules over it.

    Base of :class:`~repro.isomorphism.qsearch.QSearchEngine` and
    :class:`~repro.core.search.LevelSearchEngine`. ``counts`` receives
    ``conflict_skips`` / ``bad_vertices_marked`` (the engine itself, or the
    shared ``SearchStats``); the three switches are the strategies of
    Sections 5.3, 5.4 and Appendix B.3. Subclasses keep ``order`` — the
    query nodes in the order the current frames search them, so the nodes
    assigned when depth ``d`` fails are ``order[:d]``.
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
        self._q = q = query.size
        # Conflict sets are query-node bitmasks (bit w: node w). CT(u, *): u's neighbors.
        self._static_conflicts = [sum(1 << w for w in query.neighbor_set(u)) for u in range(q)]
        # CT(u, beta) asks whether a vertex passes u's label + degree +
        # signature filters. The plan's pools *are* that stack, so the
        # question is one set probe. A pool holds only vertices labelled
        # label(u) and an unassigned node reads UNMATCHED, which no pool
        # holds, so only the other nodes of u's label can answer yes.
        labels = query.labels
        self._same_label = [
            tuple(w for w in range(q) if w != u and labels[w] == labels[u]) for u in range(q)
        ]
        self._pool_set = candidates.plan.pool_set
        self._reset_assignment()

    def _reset_assignment(self) -> None:
        q = self._q
        self._assignment: List[int] = [UNMATCHED] * q
        self._used: Set[int] = set()
        # Bad marks carry the conflict set that justified them: a skipped
        # vertex is a failure whose reasons must still propagate upward,
        # otherwise ancestors compute understated conflict sets and prune
        # subtrees that a changed ancestor assignment would have revived.
        self._bad: List[Dict[int, int]] = [{} for _ in range(q + 1)]

    def _conflict_set(self, u: int, inherited: int) -> int:
        """The failure set of node ``u`` exhausted, as a query-node bitmask:
        ``CT(u, *) ∪ CT(u, beta)`` added to ``inherited`` (what ``u``'s failed
        children and skipped bad vertices blamed), minus ``u`` itself.

        Static part: query neighbors of ``u``. Dynamic part: assigned nodes
        whose matched vertex would pass ``u``'s label/degree/signature
        filters (it may be exactly the vertex ``u`` needed) — probed only
        among the nodes sharing ``u``'s label, the only ones that can.
        """
        conflict = inherited | self._static_conflicts[u]
        same = self._same_label[u]
        if same:
            assignment, pool = self._assignment, self._pool_set(u)
            for w in same:
                if assignment[w] in pool:
                    conflict |= 1 << w
        return conflict & ~(1 << u)

    def _child_failed(self, depth: int, u: int, v: int, conflict: int) -> bool:
        """Bookkeeping for a failed subtree under ``u -> v``; ``True`` to
        backjump past ``u``.

        Implements the Section 5.3 skip test and the Section 5.4 bad-vertex
        marking (with the Appendix B.3 relaxation when configured). The mark
        keeps ``conflict`` itself: an int, so nothing can change it later.
        """
        if self.conflict_backjumping and not conflict >> u & 1:
            self._counts.conflict_skips += 1
            return True
        if self.bad_vertex_skipping and (
            self.relaxed_bad_vertices
            or (depth > 0 and not conflict >> self.order[depth - 1] & 1)
        ):
            self._bad[depth][v] = conflict
            self._counts.bad_vertices_marked += 1
        return False
