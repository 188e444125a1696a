"""Initial candidate sets ``candS(u)`` (Section 4).

"Before running DSQL, we first generate a candidate set candS(u) for each
u in V_Q based on these filters" — label, degree and neighborhood signature.
That preprocessing is the compiled :class:`~repro.indexes.plans.QueryPlan`
(resolved filter profiles and pools, the ``qList`` ranking, the search
order); :class:`CandidateIndex` is the per-query *view* the search phases
and baselines read it through:

* ``candS[u]`` as an ordered tuple (iteration order is deterministic);
* membership tests against the plan's memoized pool sets — built lazily,
  once per cached plan, since the kernel paths intersect sorted pools
  directly and never need a set;
* ``TcandS[u] = candS[u] & V(T)`` restriction used at each DSQL level.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.kernels import intersect_sorted


class CandidateIndex:
    """Per-query candidate sets: a list/set view over a compiled plan.

    Parameters
    ----------
    graph, query:
        The data and query graphs.
    use_degree_filter, use_signature_filter:
        Individual filters can be disabled to study their pruning power
        (the label filter is always on — without it nothing is a candidate
        model of the paper's ``cand(u)``).
    cache:
        The per-graph :class:`GraphIndexCache` to resolve pools against;
        defaults to the graph's pinned cache.
    plan:
        The compiled :class:`~repro.indexes.plans.QueryPlan` for this
        (graph, query, filters) triple. A caller that already holds it
        (``DSQL.query`` fetches it once per call) hands it in and is
        responsible for key consistency; otherwise it is fetched from the
        cache's shared :class:`~repro.indexes.plans.PlanCache` under this
        index's filter toggles.

    Attributes
    ----------
    plan:
        The plan this index views; engines take their search order,
        backward lists and join kernels from it.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        use_degree_filter: bool = True,
        use_signature_filter: bool = True,
        cache: Optional[GraphIndexCache] = None,
        plan=None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.use_degree_filter = use_degree_filter
        self.use_signature_filter = use_signature_filter
        self.cache = cache if cache is not None else graph.index_cache()
        self.plan = plan or self.cache.plan_cache.get_or_compile(
            query,
            self.cache,
            use_degree_filter=use_degree_filter,
            use_signature_filter=use_signature_filter,
        )

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

    def restricted(self, u: int, allowed) -> List[int]:
        """``candS(u)`` intersected with ``allowed`` (builds ``TcandS[u]``).

        ``allowed`` may be an ascending sequence (the kernel path: one
        :func:`~repro.kernels.intersect_sorted` call) or any unordered
        collection, which is sorted first. Either way the result preserves
        the pool's ascending order, exactly like the seed's
        filter-by-membership list.
        """
        if not isinstance(allowed, (list, tuple)):
            allowed = sorted(allowed)
        return intersect_sorted(self.plan.pools[u], allowed)

    def any_empty(self) -> bool:
        """Whether some query node has no candidates (query is unsatisfiable)."""
        return any(not pool for pool in self.plan.pools)

    def full_check(self, u: int, v: int) -> bool:
        """Complete filter predicate, independent of the materialized pools.

        Used to build *dynamic conflict tables* (Section 5.3), where we must
        ask "would ``v`` have been a valid candidate for ``u_i``?" even for
        vertices currently excluded by matching state. Always applies the
        full label + degree + signature stack regardless of the per-instance
        filter toggles, matching the seed semantics.
        """
        label, qdeg, mask = self.plan.profiles[u]
        if mask is None:
            return False
        c = self.cache
        return (
            c.graph.label(v) == label
            and c.degrees[v] >= qdeg
            and c.signature_masks[v] & mask == mask
        )


def build_candidate_index(
    graph: LabeledGraph,
    query: QueryGraph,
    use_degree_filter: bool = True,
    use_signature_filter: bool = True,
) -> CandidateIndex:
    """Convenience constructor mirroring the paper's pre-processing step."""
    return CandidateIndex(
        graph,
        query,
        use_degree_filter=use_degree_filter,
        use_signature_filter=use_signature_filter,
    )
