"""Public entry points for diversified top-k subgraph querying.

Typical use::

    from repro import LabeledGraph, QueryGraph, diversified_search

    result = diversified_search(graph, query, k=40)
    for embedding in result.embeddings:
        ...  # embedding[u] is the data vertex matched to query node u

:class:`DSQL` is the reusable *session* form: it pins a data graph, its
shared :class:`~repro.indexes.graph_cache.GraphIndexCache` (label inverted
index, signature table, degree table, candidate-pool memo), and a
configuration, then answers many queries without recomputing any per-graph
state. ``query_many`` additionally memoizes whole results for repeated
queries behind a bounded LRU (``config.query_cache_size``); session-level
hit/miss counters live on :attr:`DSQL.stats`. The memo carries its own lock
(held for a lookup or a store, never across a search), so one session
answers point queries and batches from many threads at once.

The phase dispatch follows Section 6.2 exactly:

1. run DSQL-P1;
2. if P1 exhausted all levels with ``|T| < k`` — **optimal**, stop;
3. if the ``k`` embeddings are pairwise disjoint — **optimal**, stop;
4. if ``|C(T)| / MAX`` already meets the 0.5 target — good enough
   (SWAPα cannot certify beyond 0.5), stop; ``MAX`` is ``kq`` in the paper
   and ``objective.max_coverage(k)`` here;
5. otherwise run DSQL-P2 (swapping with early termination).

Every step is parameterized by ``config.objective`` (see
:mod:`repro.coverage.objectives`): coverage/benefit/loss become the
objective's weighted element quantities, ``kq`` becomes
``objective.max_coverage(k)``, and the optimality certificates of steps 2
and 3 only fire when the objective's flags say they are sound (``edge``
forfeits the exhausted certificate, ``weighted-vertex`` the disjoint one).
The default ``vertex`` objective is bit-identical to the pre-seam dispatch.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext as _nullcontext
from dataclasses import replace
from typing import Optional

from repro.core.config import DSQLConfig
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.result import DSQResult
from repro.core.state import SearchStats
from repro.coverage.objectives import build_weight_profile, make_objective
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import validate_embedding
from repro.indexes.candidates import CandidateIndex
from repro.observability import (
    Instrumentation,
    get_default_instrumentation,
    record_search_stats,
)

logger = logging.getLogger("repro.core.dsql")

# Reusable (and reentrant) stand-in for a span when instrumentation is off.
_NULL_CONTEXT = _nullcontext()


class DSQL:
    """A diversified subgraph query *session* bound to one data graph.

    Construction pins the graph's shared index cache (label inverted index,
    neighborhood-signature table, degree table, candidate-pool memo) so
    per-graph state is computed once and reused by every :meth:`query` /
    :meth:`query_many` call. Sessions are cheap to create for a graph whose
    cache is already warm; keep one around to answer a query stream.

    Parameters
    ----------
    graph:
        The data graph.
    config:
        Full configuration; or pass ``k`` alone for the defaults.
    k:
        Shorthand for ``DSQLConfig(k=...)`` when ``config`` is omitted.
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`. When omitted
        the process default (``set_default_instrumentation``) is consulted;
        ``None`` (the usual case) disables all tracing and metrics at a
        cost of a few pointer checks per query.

    Attributes
    ----------
    index_cache:
        The pinned per-graph :class:`~repro.indexes.graph_cache.GraphIndexCache`.
    stats:
        Session-level counters: ``query_cache_hits`` / ``query_cache_misses``
        for the ``query_many`` memo (per-query search counters are on each
        result's own ``stats``).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        config: Optional[DSQLConfig] = None,
        k: Optional[int] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if config is None:
            if k is None:
                raise ValueError("provide either a DSQLConfig or k")
            config = DSQLConfig(k=k)
        elif k is not None and k != config.k:
            raise ValueError(f"conflicting k: config.k={config.k}, k={k}")
        self.graph = graph
        self.config = config
        self.index_cache = graph.index_cache()
        # A view of the graph's weights, not a copy: degree-derived weights
        # read the cache's own degree list, so writes never stale it.
        self._weight_profile = (
            build_weight_profile(graph, config.vertex_weights)
            if config.objective == "weighted-vertex"
            else None
        )
        self.stats = SearchStats()
        # The result memo and its lock: every read and write of the dict is
        # in _memo_answer / _memo_lacks, under the lock.
        self._query_cache: "OrderedDict[tuple, DSQResult]" = OrderedDict()
        self._memo_lock = threading.Lock()
        if instrumentation is None:
            instrumentation = get_default_instrumentation()
        self.instrumentation = instrumentation
        # itertools.count.__next__ is atomic under the GIL, so thread-strategy
        # workers draw distinct ids without extra locking.
        self._query_ids = itertools.count()
        # The memo's (hit, miss) counters, bound once: a lookup reads no registry.
        self._memo_counters = None
        if instrumentation is not None:
            metrics = instrumentation.metrics
            self.index_cache.attach_metrics(metrics)
            self._memo_counters = (
                metrics.counter("cache.query.hit"), metrics.counter("cache.query.miss")
            )

    def query(self, query: QueryGraph) -> DSQResult:
        """Answer one diversified top-k query."""
        instr = self.instrumentation
        if instr is None:
            return self._query_impl(query, None, None)
        query_id = next(self._query_ids)
        with instr.span("query", query_id=query_id, q=query.size, k=self.config.k) as span:
            result = self._query_impl(query, instr, query_id)
            span["coverage"] = result.coverage
            span["embeddings"] = len(result)
            span["optimal"] = result.optimal
        record_search_stats(instr.metrics, result.stats)
        instr.metrics.histogram("query.coverage_ratio", (0.25, 0.5, 0.75, 0.9, 1.0)).observe(
            result.approx_ratio_lower_bound()
        )
        instr.metrics.counter(f"objective.{self.config.objective}.queries").inc()
        if result.stats.phase2_swaps:
            instr.metrics.counter(
                f"objective.{self.config.objective}.swap_accept"
            ).inc(result.stats.phase2_swaps)
        logger.debug(
            "query %d: %d/%d embeddings, coverage %d, %d expansions%s",
            query_id,
            len(result),
            self.config.k,
            result.coverage,
            result.stats.nodes_expanded,
            " [deadline]" if result.stats.deadline_exhausted else "",
        )
        return result

    def _plan(self, query: QueryGraph):
        """The compiled plan for ``query``, memoized in the graph's shared cache."""
        return self.index_cache.plan_cache.get_or_compile(query, self.index_cache)

    def _query_impl(
        self, query: QueryGraph, instr: Optional[Instrumentation], query_id: Optional[int]
    ) -> DSQResult:
        config = self.config
        graph = self.graph
        stats = SearchStats()
        plan = self._plan(query)
        if instr is not None:
            with instr.span("candidate_build", query_id=query_id):
                candidates = CandidateIndex(
                    graph, query, cache=self.index_cache, plan=plan
                )
        else:
            candidates = CandidateIndex(graph, query, cache=self.index_cache, plan=plan)
        # The wall-clock deadline is anchored once and shared by both phases:
        # time_budget_ms bounds the whole query, not each phase. With
        # auto_time_budget and no explicit budget, the deadline is derived
        # from the plan's cost estimate (see repro.cost) so runaway queries
        # self-truncate; the estimate is observed against actuals afterwards
        # to keep the per-graph calibration honest.
        deadline = None
        cost_estimate = None
        if config.time_budget_ms is not None:
            deadline = time.monotonic() + config.time_budget_ms / 1000.0
        elif config.auto_time_budget:
            from repro.cost.estimator import derive_time_budget_ms

            cost_estimate = self.index_cache.cost_estimator().estimate(plan, k=config.k)
            budget_ms = derive_time_budget_ms(cost_estimate, config.work_unit_rate)
            deadline = time.monotonic() + budget_ms / 1000.0

        with (
            instr.span("phase1", query_id=query_id)
            if instr is not None
            else _NULL_CONTEXT
        ):
            phase1 = run_phase1(
                graph,
                query,
                config,
                candidates,
                stats,
                deadline=deadline,
                instrumentation=instr,
                query_id=query_id,
                plan=plan,
            )
        state = phase1.state
        k, q = config.k, query.size
        truncated = stats.budget_exhausted or stats.deadline_exhausted
        objective = make_objective(
            config.objective, query=query, weight_profile=self._weight_profile
        )

        optimal = False
        reason = ""
        if (
            phase1.exhausted
            and len(state) < k
            and not config.relaxed_bad_vertices
            and not truncated
            and objective.certifies_exhausted_optimal
        ):
            # Theorem 3's |A| < k case. The DSQLh relaxation skips vertices
            # that may still extend to embeddings, so it forfeits this claim;
            # so do objectives whose elements outlive vertex exhaustion
            # (a vertex-covered embedding can still add fresh data edges).
            optimal, reason = True, "exhausted"
        elif (
            len(state) == k
            and state.is_disjoint()
            and objective.certifies_disjoint_optimal
        ):
            optimal, reason = True, "disjoint"

        embeddings = list(state.embeddings)
        is_vertex = config.objective == "vertex"
        coverage = (
            state.coverage if is_vertex else objective.collection_coverage(embeddings)
        )
        level = phase1.level

        max_cov = objective.max_coverage(k)
        ratio = coverage / max_cov if max_cov else 1.0
        if (
            not optimal
            and config.run_phase2
            and len(state) == k
            and ratio < config.phase2_ratio_target
            and not truncated
        ):
            with (
                instr.span("phase2", query_id=query_id)
                if instr is not None
                else _NULL_CONTEXT
            ):
                phase2 = run_phase2(
                    graph,
                    query,
                    config,
                    candidates,
                    phase1,
                    stats,
                    deadline=deadline,
                    instrumentation=instr,
                    query_id=query_id,
                    plan=plan,
                    objective=objective if not is_vertex else None,
                )
            embeddings = phase2.embeddings
            coverage = phase2.coverage

        if instr is not None and deadline is not None:
            instr.deadline_margin((deadline - time.monotonic()) * 1000.0, query_id)

        result = DSQResult(
            embeddings=embeddings,
            k=k,
            q=q,
            coverage=coverage,
            level=level,
            optimal=optimal,
            optimal_reason=reason,
            stats=stats,
            objective=config.objective,
            coverage_bound=None if is_vertex else max_cov,
        )
        if config.validate_results:
            for emb in result.embeddings:
                validate_embedding(graph, query, emb)
        if cost_estimate is not None:
            self.index_cache.cost_estimator().observe(
                cost_estimate, stats.nodes_expanded
            )
        return result

    def estimate(self, query: QueryGraph):
        """Calibrated cost estimate for ``query`` without running it.

        Compiles (or fetches from the shared plan cache) the same
        :class:`~repro.indexes.plans.QueryPlan` a real ``query()`` call
        would use, and folds the session's ``k`` into the plan's memoized
        cost profile — see :mod:`repro.cost`.
        """
        return self.index_cache.cost_estimator().estimate(
            self._plan(query), k=self.config.k
        )

    def memo_key(self, query: QueryGraph) -> tuple:
        """The ``query_many`` memo key: graph version + canonical structure.

        Qualifying the canonical key with the index cache's
        ``(epoch, delta_seq)`` version means a mutation never replays a
        pre-mutation answer — stale entries simply stop being addressable
        and age out of the LRU.
        """
        return (self.index_cache.version, query.canonical_key())

    def query_many(self, queries) -> list:
        """Answer a sequence of queries, memoizing repeated query structure.

        Queries are memoized by :meth:`QueryGraph.canonical_key`, qualified
        by the graph's ``(epoch, delta_seq)`` version — identical labeled
        structure against an unmutated graph returns an equal
        (deterministic) result without re-searching. The memo persists
        across ``query_many`` calls on this session and is bounded by
        ``config.query_cache_size`` with LRU eviction (``None`` =
        unbounded, ``0`` = disabled). Hits and misses accumulate on
        :attr:`stats`.

        A hit returns a copy of the memoized result flagged
        ``from_cache=True`` (with its own ``stats`` copy), never the stored
        object itself: :class:`DSQResult` is frozen, but ``stats`` is a
        mutable counter bundle, and handing the cached instance out would let
        one caller's bookkeeping corrupt every later hit.
        """
        results = []
        for query in queries:
            results.append(
                self._memo_answer(self.memo_key(query), lambda q=query: self.query(q))
            )
        return results

    def _memo_lookup(self, key) -> Optional[DSQResult]:
        """The lookup half of :meth:`_memo_answer`: the memo's own stored
        result for ``key`` (never write to it) or ``None``, counted as a hit
        or a miss, the LRU refreshed and ``memo.lookup`` emitted."""
        cache = self._query_cache
        cap = self.config.query_cache_size
        stats = self.stats
        instr = self.instrumentation
        with self._memo_lock:
            result = cache.get(key) if cap != 0 else None
            if result is None:
                stats.query_cache_misses += 1
            else:
                stats.query_cache_hits += 1
                cache.move_to_end(key)
        if instr is not None:
            hits, misses = self._memo_counters
            if result is not None:
                hits.inc()
                instr.point("memo.lookup", hit=True)
            else:
                misses.inc()
                if cap != 0:
                    instr.point("memo.lookup", hit=False)
        return result

    def _memo_answer(self, key, compute, hit=None):
        """One memo step of :meth:`query_many`: hit, or ``compute()`` + store.

        The one way into the memo, and thread-safe on its own: the lookup
        (:meth:`_memo_lookup`) and the store each run under the memo's lock,
        ``compute()`` runs outside it. Two threads that miss the same key
        together both compute and both count a miss — sound because the
        search is deterministic, so the two stores are equal.
        :class:`~repro.parallel.executor.BatchExecutor` replays a batch
        through this step with ``compute`` returning a result searched on a
        worker, and the service answers point queries through it, so both
        match serial ``query_many`` by construction, counters included. A
        hit returns ``hit(stored)`` if ``hit`` is given, else a copy.
        """
        result = self._memo_lookup(key)
        if result is not None:
            if hit is not None:
                return hit(result)
            # Stored entries are never written to, so copying outside the
            # lock is safe; the copy shares nothing mutable with the memo.
            return replace(result, from_cache=True, stats=result.stats.copy())
        result = compute()
        cap = self.config.query_cache_size
        if cap != 0:
            stored = replace(result, stats=result.stats.copy())
            with self._memo_lock:
                cache = self._query_cache
                cache[key] = stored
                if cap is not None and len(cache) > cap:
                    cache.popitem(last=False)
        return result

    def _memo_lacks(self, keys) -> list:
        """Those of ``keys`` the memo does not hold right now, in order."""
        if self.config.query_cache_size == 0:
            return list(keys)
        with self._memo_lock:
            return [key for key in keys if key not in self._query_cache]


def diversified_search(
    graph: LabeledGraph,
    query: QueryGraph,
    k: int,
    config: Optional[DSQLConfig] = None,
    **overrides,
) -> DSQResult:
    """One-shot convenience wrapper around :class:`DSQL`.

    Keyword overrides are forwarded to :class:`DSQLConfig`, e.g.
    ``diversified_search(g, q, k=40, run_phase2=False)``.
    """
    if config is None:
        config = DSQLConfig(k=k, **overrides)
    elif overrides:
        raise ValueError("pass either a config object or keyword overrides, not both")
    return DSQL(graph, config=config).query(query)
