"""Initial candidate sets ``candS(u)`` (Section 4).

"Before running DSQL, we first generate a candidate set candS(u) for each
u in V_Q based on these filters" — label, degree and neighborhood signature.
That preprocessing is the compiled :class:`~repro.indexes.plans.QueryPlan`
(resolved filter profiles and pools, the ``qList`` ranking, the search
order); :class:`CandidateIndex` is the per-query *view* the search phases
and baselines read it through:

* ``candS[u]`` as an ordered tuple (iteration order is deterministic);
* membership tests against the plan's memoized pool sets — built lazily,
  once per cached plan;
* the localized candidates of Section 5.1, ``N(v_father) ∩ candS(u)``
  (:meth:`CandidateIndex.localized`), memoized for the life of the view —
  one query against one graph version.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.kernels import intersect_sets


class CandidateIndex:
    """Per-query candidate sets: a list/set view over a compiled plan.

    Parameters
    ----------
    graph, query:
        The data and query graphs.
    cache:
        The per-graph :class:`GraphIndexCache` to resolve pools against;
        defaults to the graph's pinned cache.
    plan:
        The compiled :class:`~repro.indexes.plans.QueryPlan` for this
        (graph, query) pair. A caller that already holds it
        (``DSQL.query`` fetches it once per call) hands it in and is
        responsible for key consistency; otherwise it is fetched from the
        cache's shared :class:`~repro.indexes.plans.PlanCache`.

    Attributes
    ----------
    plan:
        The plan this index views; engines take their search order,
        backward lists and join kernels from it.

    A view serves one query against one graph version: the localized lists
    it memoizes (``_localized[u][fv]`` — the level engine's frames probe the
    dict in place and call :meth:`localized` on a miss) are not repaired by
    a mutation, so build a fresh view per query (``DSQL.query`` does) rather
    than keeping one across writes.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        cache: Optional[GraphIndexCache] = None,
        plan=None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.cache = cache if cache is not None else graph.index_cache()
        self.plan = plan or self.cache.plan_cache.get_or_compile(query, self.cache)
        # Both sides of a localized intersection, bound once per view: the
        # storage's row sets and the plan's lazily built pool sets.
        self._neighbor_set = graph.neighbor_set
        self._pool_set = self.plan.pool_set
        self._localized: List[Dict[int, List[int]]] = [{} for _ in self.plan.pools]

    def candidates(self, u: int) -> Tuple[int, ...]:
        """``candS(u)`` in deterministic (label-index) order."""
        return self.plan.pools[u]

    def candidate_set(self, u: int) -> FrozenSet[int]:
        """``candS(u)`` as a set for O(1) membership tests.

        The plan's memoized view: one build amortized across every session
        and repeated query sharing the cached plan.
        """
        return self.plan.pool_set(u)

    def size(self, u: int) -> int:
        """``|candS(u)|`` — the numerator of the qList selectivity score."""
        return len(self.plan.pools[u])

    def sizes(self) -> List[int]:
        """All candidate-set sizes, indexed by query node."""
        return [len(pool) for pool in self.plan.pools]

    def is_candidate(self, u: int, v: int) -> bool:
        """Whether ``v`` is in ``candS(u)`` (the static filter view)."""
        return v in self.plan.pool_set(u)

    def localized(self, u: int, fv: int) -> List[int]:
        """``N(fv) ∩ candS(u)`` ascending — Section 5.1's localized ``Rcand``.

        ``fv`` is the vertex matched to ``u``'s father. One C-level
        intersection of the storage's neighbor set with the plan's pool set
        (``min`` of the two sizes), computed once per ``(u, fv)`` and
        memoized on this view: while an anchor enumerates under a fixed
        overlap prefix, every anchor candidate asks for the same hub rows
        again. The list is shared — callers iterate it and must not reorder
        it in place (the Section 5.2 shuffle works on a copy).
        """
        memo = self._localized[u]
        hit = memo.get(fv)
        if hit is None:
            hit = memo[fv] = intersect_sets(self._neighbor_set(fv), self._pool_set(u))
        return hit

    def any_empty(self) -> bool:
        """Whether some query node has no candidates (query is unsatisfiable)."""
        return any(not pool for pool in self.plan.pools)


def build_candidate_index(graph: LabeledGraph, query: QueryGraph) -> CandidateIndex:
    """Convenience constructor mirroring the paper's pre-processing step."""
    return CandidateIndex(graph, query)
