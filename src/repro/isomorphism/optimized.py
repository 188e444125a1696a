"""Conflict-directed subgraph querying — the §5.3/§5.4 strategies on plain SQ.

The paper notes that the node-skipping (conflict table) and bad-vertex
strategies "are also applicable for subgraph querying, SQ". This module
provides that application: :class:`OptimizedQSearchEngine` enumerates the
same embedding set as the plain engine but prunes the backtracking with

* **conflict-directed backjumping** — a completely failed subtree carries a
  conflict set upward; ancestors outside the set are skipped, since changing
  their assignment cannot repair the failure (exactly the Section 5.3
  argument, which only reasons about the failing node's candidate validity);
* **bad-vertex marking** — a vertex whose subtree failed while the preceding
  node is not in the conflict set is marked bad for its depth; marks are
  cleared when the prefix two levels up changes (Section 5.4 / Lemma 3).

Skipping is only applied to subtrees that yielded *no* embedding, so full
enumeration remains exact — verified against brute force in the test suite.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set

from repro.exceptions import BudgetExceeded, DeadlineExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.plans import expand_pool
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.match import Mapping
from repro.kernels import KERNEL_KINDS


class OptimizedQSearchEngine:
    """Exhaustive SQ with conflict-directed backjumping and bad vertices.

    API mirrors :class:`~repro.isomorphism.qsearch.QSearchEngine`:
    construct, then iterate :meth:`embeddings`. Extra statistics record how
    much the strategies pruned.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        candidates: Optional[CandidateIndex] = None,
        node_budget: Optional[int] = None,
        time_budget_ms: Optional[float] = None,
        conflict_backjumping: bool = True,
        bad_vertex_skipping: bool = True,
        instrumentation=None,
        query_id: Optional[int] = None,
        plan=None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.candidates = candidates or CandidateIndex(graph, query, plan=plan)
        self.node_budget = node_budget
        self.time_budget_ms = time_budget_ms
        # Anchored at construction: the deadline caps the whole enumeration,
        # checked on the same shared stride as LevelSearchEngine.
        self._deadline: Optional[float] = (
            None if time_budget_ms is None else time.monotonic() + time_budget_ms / 1000.0
        )
        # Late import: repro.core.search pulls from repro.isomorphism, so a
        # module-level import here would cycle through the package __init__.
        # The stride is snapshotted per engine (tests override it directly).
        from repro.core.search import DEADLINE_CHECK_STRIDE

        self._deadline_stride = DEADLINE_CHECK_STRIDE
        self.instrumentation = instrumentation
        self.query_id = query_id
        self.conflict_backjumping = conflict_backjumping
        self.bad_vertex_skipping = bad_vertex_skipping
        self.nodes_expanded = 0
        self.conflict_skips = 0
        self.bad_vertex_skips = 0
        self.budget_exhausted = False
        self.deadline_exhausted = False
        self._plan = plan or self.candidates.plan
        self.kernel_dispatch: Dict[str, int] = dict.fromkeys(KERNEL_KINDS, 0)
        self.order = list(self._plan.order)
        q = query.size
        self._assignment: List[int] = [UNMATCHED] * q
        self._used: Set[int] = set()
        # Bad marks carry the conflict set that justified them: a skipped
        # vertex is a failure whose reasons must still propagate upward,
        # otherwise ancestors compute understated conflict sets and prune
        # subtrees that a changed ancestor assignment would have revived.
        self._bad: List[Dict[int, Set[int]]] = [{} for _ in range(q + 1)]
        self._carry: Optional[Set[int]] = None

    def embeddings(self) -> Iterator[Mapping]:
        """Yield every embedding (same set as the plain engine)."""
        if self.candidates.any_empty():
            return
        instr = self.instrumentation
        emitted = 0
        start_ms = time.monotonic() * 1000.0
        try:
            for mapping in self._recurse(0):
                emitted += 1
                if instr is not None:
                    instr.embedding_emitted("sq", -1, mapping, self.query_id)
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

    # ------------------------------------------------------------------
    def _charge(self) -> None:
        self.nodes_expanded += 1
        if self.node_budget is not None and self.nodes_expanded > self.node_budget:
            self.budget_exhausted = True
            raise BudgetExceeded(f"node budget {self.node_budget} exhausted")
        if self._deadline is not None:
            stride = self._deadline_stride
            if self.nodes_expanded % stride == 0:
                now = time.monotonic()
                if self.instrumentation is not None:
                    self.instrumentation.deadline_tick(
                        self.nodes_expanded,
                        (self._deadline - now) * 1000.0,
                        stride,
                        self.query_id,
                    )
                if now >= self._deadline:
                    self.deadline_exhausted = True
                    raise DeadlineExceeded(
                        f"time budget {self.time_budget_ms} ms exhausted"
                    )

    def _pool(self, depth: int) -> List[int]:
        kind, pool = expand_pool(
            self._plan, depth, self._assignment, self.candidates.cache
        )
        self.kernel_dispatch[kind] += 1
        return pool

    def _conflict_set(self, u: int) -> Set[int]:
        conflicts: Set[int] = set(self.query.neighbors(u))
        full_check = self.candidates.full_check
        for u2, v2 in enumerate(self._assignment):
            if u2 != u and v2 != UNMATCHED and u2 not in conflicts:
                if full_check(u, v2):
                    conflicts.add(u2)
        return conflicts

    def _recurse(self, depth: int) -> Iterator[Mapping]:
        if depth == self.query.size:
            yield tuple(self._assignment)
            return
        u = self.order[depth]
        self._bad[depth + 1].clear()
        assignment, used = self._assignment, self._used
        bad = self._bad[depth]
        yielded_any = False
        inherited: Set[int] = set()

        for v in self._pool(depth):
            self._charge()
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
            conflict = None if produced else self._carry
            assignment[u] = UNMATCHED
            used.discard(v)
            if produced:
                yielded_any = True
                continue
            # The subtree under v failed entirely: apply the strategies.
            if conflict is None:
                conflict = set()
            inherited |= conflict
            if self.conflict_backjumping and conflict and u not in conflict:
                self.conflict_skips += 1
                self._carry = conflict
                return
            if self.bad_vertex_skipping:
                prev_ok = depth > 0 and self.order[depth - 1] not in conflict
                if prev_ok:
                    bad[v] = set(conflict)

        if yielded_any:
            self._carry = None
        else:
            failure = self._conflict_set(u) | inherited
            failure.discard(u)
            self._carry = failure


def enumerate_embeddings_optimized(
    graph: LabeledGraph,
    query: QueryGraph,
    limit: Optional[int] = None,
    node_budget: Optional[int] = None,
    time_budget_ms: Optional[float] = None,
) -> List[Mapping]:
    """Drop-in optimized counterpart of ``enumerate_embeddings``.

    ``limit <= 0`` returns ``[]``.
    """
    engine = OptimizedQSearchEngine(
        graph, query, node_budget=node_budget, time_budget_ms=time_budget_ms
    )
    return list(islice(engine.embeddings(), None if limit is None else max(limit, 0)))
