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
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional, Sequence, Set

from repro.exceptions import BudgetExceeded, InvalidQueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.indexes.plans import expand_pool
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.match import Mapping, distinct_by_vertex_set
from repro.kernels import KERNEL_KINDS


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


class QSearchEngine:
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
    plan:
        The compiled :class:`~repro.indexes.plans.QueryPlan` to search with
        (e.g. a compression-enabled one); defaults to the plan
        ``candidates`` views. It supplies the search order and drives
        candidate expansion through the :mod:`repro.kernels` paths — the
        enumerated stream is the same whichever kernels it picked.
        Per-kind dispatch counts accumulate in :attr:`kernel_dispatch`.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        candidates: Optional[CandidateIndex] = None,
        node_budget: Optional[int] = None,
        plan=None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.candidates = candidates or CandidateIndex(graph, query, plan=plan)
        self.node_budget = node_budget
        self.nodes_expanded = 0
        self.budget_exhausted = False
        self._plan = plan or self.candidates.plan
        self.kernel_dispatch: dict = dict.fromkeys(KERNEL_KINDS, 0)
        self.order = list(self._plan.order)

    def _charge(self) -> None:
        self.nodes_expanded += 1
        if self.node_budget is not None and self.nodes_expanded > self.node_budget:
            self.budget_exhausted = True
            raise BudgetExceeded(f"node budget {self.node_budget} exhausted")

    def embeddings(self) -> Iterator[Mapping]:
        """Yield every embedding of the query; stops cleanly on budget."""
        if self.candidates.any_empty():
            return
        assignment = [UNMATCHED] * self.query.size
        used: Set[int] = set()
        try:
            yield from self._recurse(0, assignment, used)
        except BudgetExceeded:
            return

    def _candidate_pool(self, depth: int, assignment: List[int]) -> List[int]:
        """Candidates for the node at ``depth`` under the current assignment."""
        kind, pool = expand_pool(self._plan, depth, assignment, self.candidates.cache)
        self.kernel_dispatch[kind] += 1
        return pool

    def _recurse(
        self,
        depth: int,
        assignment: List[int],
        used: Set[int],
    ) -> Iterator[Mapping]:
        if depth == self.query.size:
            yield tuple(assignment)
            return
        u = self.order[depth]
        for v in self._candidate_pool(depth, assignment):
            self._charge()
            if v in used:
                continue
            assignment[u] = v
            used.add(v)
            yield from self._recurse(depth + 1, assignment, used)
            used.discard(v)
            assignment[u] = UNMATCHED


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


def first_k_embeddings(
    graph: LabeledGraph,
    query: QueryGraph,
    k: int,
    node_budget: Optional[int] = None,
) -> List[Mapping]:
    """The first ``k`` embeddings in engine order (the Table 3 baseline).

    Existing SQ systems stop after ~1000 matches; their results are "highly
    overlapping and not very representative" — this function exists to
    measure exactly that effect.
    """
    return enumerate_embeddings(graph, query, limit=k, node_budget=node_budget)


def has_embedding(graph: LabeledGraph, query: QueryGraph) -> bool:
    """Whether at least one embedding exists."""
    return bool(enumerate_embeddings(graph, query, limit=1))
