"""Generic subgraph-querying engine (Algorithm 1, "QSearch").

This is the Ullmann-style recursive backtracking framework the paper builds
on: enumerate partial solutions one query node at a time, verifying labels,
filters, and edge joins incrementally. It powers

* the exhaustive enumeration of Table 2 (total embedding counts),
* the first-k baseline of Table 3,
* the embedding streams fed to the k-coverage algorithms of Table 4.

Design choices that matter for fidelity and speed:

* **Connectivity-aware order** — nodes are visited in an order where every
  node after the first has an already-matched query neighbor, so candidates
  come from a neighbor intersection instead of the whole label bucket. This
  matches how TurboISO-family engines localize search.
* **Candidate refinement** — label / degree / neighborhood-signature filters
  (Section 4.2) prune before the join test.
* **Budgets** — ``node_budget`` bounds backtracking-node expansions so
  pathological (graph, query) pairs degrade into truncated enumeration
  rather than hangs; Table 2's "> 5 hours" rows are reproduced as budget
  exhaustion.
* **Conflict-directed pruning** — the Section 5.3 (node skipping) and 5.4
  (bad vertices) strategies, which the paper notes "are also applicable for
  subgraph querying, SQ", are two switches on this one engine (default
  off), not a second engine; exactness is verified against brute force.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.exceptions import BudgetExceeded, InvalidQueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.plans import expand_pool
from repro.isomorphism.backtrack import ConflictDirectedSearch, ExpansionMeter
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.match import Mapping, distinct_by_vertex_set
from repro.kernels import KERNEL_KINDS, MERGE, SCAN


def connected_search_order(query: QueryGraph, qlist: Sequence[int]) -> List[int]:
    """Reorder ``qlist`` so each node (after the first) has an earlier neighbor.

    Greedy: start from the most selective node; repeatedly pick the
    not-yet-placed node with an already-placed neighbor that ranks earliest
    in ``qlist``. Connected queries always admit such an order.
    """
    ranks = {u: r for r, u in enumerate(qlist)}
    order = [qlist[0]]
    placed = {qlist[0]}
    frontier: Set[int] = set(query.neighbors(qlist[0]))
    while len(order) < query.size:
        reachable = frontier - placed
        if not reachable:
            # The query is disconnected: every remaining node is unreachable
            # from the search root, so no connectivity-aware order exists.
            component = sorted(set(range(query.size)) - placed)
            raise InvalidQueryError(
                "query graph is disconnected: nodes "
                f"{component} are unreachable from node {qlist[0]}",
                component=component,
            )
        best = min(reachable, key=lambda u: ranks[u])
        order.append(best)
        placed.add(best)
        frontier.update(query.neighbors(best))
    return order


class QSearchEngine(ConflictDirectedSearch):
    """Reusable enumeration engine for one (graph, query) pair.

    Parameters
    ----------
    graph, query:
        Data and query graphs.
    candidates:
        Optional pre-built :class:`CandidateIndex`; built on demand otherwise.
    node_budget:
        Maximum number of candidate expansions before enumeration stops. The
        engine raises :class:`BudgetExceeded` internally and converts it to a
        clean stop; :attr:`budget_exhausted` records whether it tripped.
    time_budget_ms:
        Wall-clock cap on the whole enumeration, anchored at construction
        and probed every
        :data:`~repro.isomorphism.backtrack.DEADLINE_CHECK_STRIDE`
        expansions; :attr:`deadline_exhausted` records whether it tripped.
    conflict_backjumping, bad_vertex_skipping:
        The Section 5.3 / 5.4 strategies, which the paper notes "are also
        applicable for subgraph querying, SQ". A completely failed subtree
        carries a conflict set upward: ancestors outside it are skipped
        (changing them cannot repair the failure), and a vertex whose
        subtree failed while the preceding node is not in the set is marked
        bad for its depth until the prefix two levels up changes (Lemma 3).
        Only subtrees that yielded *no* embedding are skipped, so the
        enumerated stream is the same with the switches on or off;
        :attr:`conflict_skips`, :attr:`bad_vertex_skips` and
        :attr:`bad_vertices_marked` record the pruning.
    instrumentation, query_id:
        Optional :class:`~repro.observability.Instrumentation`: the counters
        (``sq.embeddings_emitted`` among them) and the ``sq.enumerate`` span
        are flushed once when the generator closes.
    plan:
        The compiled :class:`~repro.indexes.plans.QueryPlan` to search with;
        defaults to the plan ``candidates`` views. It supplies the search
        order; :func:`~repro.indexes.plans.expand_pool` joins each depth on
        it. Per-kind dispatch counts accumulate in :attr:`kernel_dispatch`:
        ``scan`` at the root, ``merge`` everywhere else.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        candidates: Optional[CandidateIndex] = None,
        node_budget: Optional[int] = None,
        time_budget_ms: Optional[float] = None,
        conflict_backjumping: bool = False,
        bad_vertex_skipping: bool = False,
        instrumentation=None,
        query_id: Optional[int] = None,
        plan=None,
    ) -> None:
        super().__init__(
            query,
            candidates or CandidateIndex(graph, query, plan=plan),
            self,
            conflict_backjumping,
            bad_vertex_skipping,
        )
        self.graph = graph
        self.instrumentation = instrumentation
        self.query_id = query_id
        self.nodes_expanded = 0
        self.conflict_skips = 0
        self.bad_vertex_skips = 0
        self.bad_vertices_marked = 0
        self.budget_exhausted = False
        self.deadline_exhausted = False
        self._meter = ExpansionMeter(
            self,
            node_budget,
            None if time_budget_ms is None else time.monotonic() + time_budget_ms / 1000.0,
            instrumentation,
            query_id,
        )
        self._plan = plan or self.candidates.plan
        self.kernel_dispatch: Dict[str, int] = dict.fromkeys(KERNEL_KINDS, 0)
        self.order = list(self._plan.order)
        self._carry: Optional[int] = None

    def embeddings(self) -> Iterator[Mapping]:
        """Yield every embedding of the query; stops cleanly on budget."""
        if self.candidates.any_empty():
            return
        self._reset_assignment()  # an abandoned earlier stream leaves state behind
        instr = self.instrumentation
        emitted = 0
        start_ms = time.monotonic() * 1000.0
        try:
            for mapping in self._recurse(0):
                emitted += 1
                yield mapping
        except BudgetExceeded:
            return
        finally:
            if instr is not None:
                self._flush_metrics(instr, emitted, start_ms)

    def _flush_metrics(self, instr, emitted: int, start_ms: float) -> None:
        """Record this enumeration's counters once, at generator close."""
        metrics = instr.metrics
        metrics.counter("sq.nodes_expanded").inc(self.nodes_expanded)
        metrics.counter("sq.embeddings_emitted").inc(emitted)
        if self.conflict_skips:
            metrics.counter("prune.conflict_skip").inc(self.conflict_skips)
        if self.bad_vertex_skips:
            metrics.counter("prune.bad_vertex_skip").inc(self.bad_vertex_skips)
        for kind, count in self.kernel_dispatch.items():
            if count:
                metrics.counter(f"kernel.dispatch.{kind}").inc(count)
        if instr.tracer is not None:
            instr.tracer.emit_span(
                "sq.enumerate",
                start_ms,
                query_id=self.query_id,
                expansions=self.nodes_expanded,
                emitted=emitted,
                budget_exhausted=self.budget_exhausted,
                deadline_exhausted=self.deadline_exhausted,
            )

    def _recurse(self, depth: int) -> Iterator[Mapping]:
        if depth == self.query.size:
            yield tuple(self._assignment)
            return
        u = self.order[depth]
        self._bad[depth + 1].clear()
        assignment, used = self._assignment, self._used
        bad = self._bad[depth]
        charge = self._meter.charge
        # With both switches off nobody reads a conflict set: build none.
        directed = self.conflict_backjumping or self.bad_vertex_skipping
        yielded_any = False
        inherited = 0

        pool = expand_pool(self._plan, depth, assignment, self.candidates.cache)
        self.kernel_dispatch[MERGE if depth else SCAN] += 1
        for v in pool:
            charge()
            mark = bad.get(v)
            if mark is not None:
                self.bad_vertex_skips += 1
                inherited |= mark
                continue
            # expand_pool already intersected every matched neighbor's row,
            # so injectivity is the whole join test.
            if v in used:
                continue
            assignment[u] = v
            used.add(v)
            produced = False
            for mapping in self._recurse(depth + 1):
                produced = True
                yield mapping
            assignment[u] = UNMATCHED
            used.discard(v)
            if produced:
                yielded_any = True
            elif directed:
                # The subtree under v failed entirely: apply the strategies.
                conflict = self._carry
                inherited |= conflict
                if self._child_failed(depth, u, v, conflict):
                    return

        if yielded_any:
            self._carry = None
        elif directed:
            self._carry = self._conflict_set(u, inherited)


def enumerate_embeddings(
    graph: LabeledGraph,
    query: QueryGraph,
    limit: Optional[int] = None,
    distinct_vertex_sets: bool = False,
    node_budget: Optional[int] = None,
    candidates: Optional[CandidateIndex] = None,
) -> List[Mapping]:
    """All (or the first ``limit``) embeddings of ``query`` in ``graph``.

    Set ``distinct_vertex_sets=True`` to collapse embeddings over the same
    vertex set (the view DSQ works with). ``limit <= 0`` returns ``[]``.
    ``node_budget`` truncates runaway enumerations; see
    :class:`QSearchEngine`.
    """
    engine = QSearchEngine(graph, query, candidates=candidates, node_budget=node_budget)
    stream: Iterator[Mapping] = engine.embeddings()
    if distinct_vertex_sets:
        stream = distinct_by_vertex_set(stream)
    return list(islice(stream, None if limit is None else max(limit, 0)))


def count_embeddings(
    graph: LabeledGraph,
    query: QueryGraph,
    node_budget: Optional[int] = None,
) -> tuple[int, bool]:
    """``(count, complete)`` — total embeddings and whether enumeration finished.

    ``complete`` is ``False`` when the node budget tripped, mirroring the
    paper's Table 2 rows that could not finish within the time limit.
    """
    engine = QSearchEngine(graph, query, node_budget=node_budget)
    count = sum(1 for _ in engine.embeddings())
    return count, not engine.budget_exhausted
