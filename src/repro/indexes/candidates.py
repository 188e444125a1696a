"""Initial candidate sets ``candS(u)`` (Section 4).

"Before running DSQL, we first generate a candidate set candS(u) for each
u in V_Q based on these filters" — label, degree and neighborhood signature.
That preprocessing is the compiled :class:`~repro.indexes.plans.QueryPlan`
(resolved filter profiles and pools, the ``qList`` ranking, the search
order); :class:`CandidateIndex` is the per-query *view* the search phases
and baselines read it through:

* ``candS[u]`` as an ordered tuple (iteration order is deterministic);
* membership tests against the pools' set views — built lazily, once per
  pool entry, and shared by every plan resolving to it;
* the localized candidates of Section 5.1, ``N(v_father) ∩ candS(u)``
  (:meth:`CandidateIndex.localized`), memoized per ``(pool, fv)`` on the
  pool's memo entry (:class:`~repro.indexes.graph_cache.PoolEntry`), so
  they outlive the plans that built them and the writes that do not change
  them; a write pops the lists it changed.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache


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
        The plan this index views; engines take their search order and
        backward lists from it.

    The localized lists (``_localized[u][fv]`` — the level engine's frames
    probe the dict in place and call :meth:`localized` on a miss) are the
    dicts of the plan's pool entries (private ones for retired entries),
    handed over by :meth:`~repro.indexes.graph_cache.GraphIndexCache.
    entry_lists` with the version they were read at; a miss is kept only if
    no write began since (``keep_list``), as the view's pools are its
    plan's at that version. No write repairs a list; one that
    changes a list pops it. So fetch the plan per query (``DSQL.query``
    does) rather than keeping a plan or a view across writes.
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
        # What a localized miss reads, bound once per view.
        self._pool_set = self.plan.pool_set
        self._keep_list = self.cache.keep_list
        self._seq, self._localized = self.cache.entry_lists(self.plan.entries)

    def candidates(self, u: int) -> Tuple[int, ...]:
        """``candS(u)`` in deterministic (label-index) order."""
        return self.plan.pools[u]

    def candidate_set(self, u: int) -> FrozenSet[int]:
        """``candS(u)`` as a set for O(1) membership tests.

        The pool's set view: built once per pool entry and shared by
        every plan, session and repeated query resolving to it.
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

    def localized(self, u: int, fv: int) -> Tuple[int, ...]:
        """``N(fv) ∩ candS(u)`` ascending — Section 5.1's localized ``Rcand``.

        ``fv`` is the vertex matched to ``u``'s father. Its row is filtered by
        the pool's set view, in C, once per ``(pool, fv)`` and memoized: while
        an anchor enumerates under a fixed overlap prefix, every anchor
        candidate asks for the same hub rows again, and every plan over the
        pool asks for the rows earlier plans asked for. The tuple is shared —
        the Section 5.2 shuffle works on a copy — and, holding only ints,
        leaves the collector's lists.
        """
        memo = self._localized[u]
        hit = memo.get(fv)
        if hit is None:
            hit = tuple(filter(self._pool_set(u).__contains__, self.graph.neighbors(fv)))
            self._keep_list(self._seq, memo, fv, hit)
        return hit

    def any_empty(self) -> bool:
        """Whether some query node has no candidates (query is unsatisfiable)."""
        return any(not pool for pool in self.plan.pools)
