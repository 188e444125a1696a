"""Query-batch execution for the paper's experiments.

A *solver* here is any callable ``(graph, query) -> SolverOutcome``;
adapters wrap DSQL, COM, and the other baselines into that interface so one
runner produces comparable :class:`BatchSummary` rows for every figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.baselines.com import com_search
from repro.baselines.firstk import first_k_baseline
from repro.baselines.random_start import random_start_search
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.experiments.measurement import BatchSummary, QueryRecord
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph


@dataclass(frozen=True)
class SolverOutcome:
    """Normalized solver output for measurement: a :class:`QueryRecord`'s
    fields but ``seconds``, which :func:`run_batch` adds.

    ``metrics`` is a :meth:`~repro.core.state.SearchStats.snapshot` when the
    solver exposes per-query counters (DSQL does); baselines leave it
    ``None``.
    """

    coverage: int
    max_value: int
    num_embeddings: int
    optimal: bool = False
    budget_exhausted: bool = False
    deadline_exhausted: bool = False
    from_cache: bool = False
    metrics: Optional[Dict[str, object]] = None


Solver = Callable[[LabeledGraph, QueryGraph], SolverOutcome]


def dsql_solver(config: DSQLConfig) -> Solver:
    """Adapter: DSQL with ``config``.

    ``MAX`` follows Section 7.3: the solution's own coverage when provably
    optimal, else ``k * q``. One DSQL session is kept per data graph, so a
    batch over the same graph shares the per-graph index cache instead of
    rebuilding it per query.
    """
    # Keyed by id() with the graph kept alive alongside the session, so a
    # recycled id can never alias a dead graph.
    sessions: dict = {}

    def solve(graph: LabeledGraph, query: QueryGraph) -> SolverOutcome:
        entry = sessions.get(id(graph))
        if entry is None or entry[0] is not graph:
            entry = (graph, DSQL(graph, config=config))
            sessions[id(graph)] = entry
        return _dsql_outcome(entry[1].query(query))

    return solve


def _dsql_outcome(result) -> SolverOutcome:
    """A :class:`~repro.core.result.DSQResult` as a solver outcome."""
    return SolverOutcome(
        coverage=result.coverage,
        max_value=result.max_value(),
        num_embeddings=len(result),
        optimal=result.optimal,
        budget_exhausted=result.stats.budget_exhausted,
        deadline_exhausted=result.stats.deadline_exhausted,
        from_cache=result.from_cache,
        metrics=result.stats.snapshot(),
    )


def com_solver(
    k: int, seed: Optional[int] = 0, node_budget: Optional[int] = 2_000_000
) -> Solver:
    """Adapter: the COM interleaving baseline."""

    def solve(graph: LabeledGraph, query: QueryGraph) -> SolverOutcome:
        result = com_search(graph, query, k, seed=seed, node_budget=node_budget)
        return SolverOutcome(
            coverage=result.coverage,
            max_value=k * query.size,
            num_embeddings=len(result.embeddings),
            budget_exhausted=result.budget_exhausted,
        )

    return solve


def first_k_solver(k: int, node_budget: Optional[int] = 2_000_000) -> Solver:
    """Adapter: the first-k baseline of Table 3."""

    def solve(graph: LabeledGraph, query: QueryGraph) -> SolverOutcome:
        result = first_k_baseline(graph, query, k, node_budget=node_budget)
        return SolverOutcome(
            coverage=result.coverage,
            max_value=k * query.size,
            num_embeddings=len(result.embeddings),
        )

    return solve


def random_start_solver(
    k: int, seed: Optional[int] = 0, node_budget: Optional[int] = 2_000_000
) -> Solver:
    """Adapter: the random-start baseline of Section 2.2."""

    def solve(graph: LabeledGraph, query: QueryGraph) -> SolverOutcome:
        result = random_start_search(graph, query, k, seed=seed, node_budget=node_budget)
        return SolverOutcome(
            coverage=result.coverage,
            max_value=k * query.size,
            num_embeddings=len(result.embeddings),
        )

    return solve


def run_batch(
    graph: LabeledGraph,
    queries: Iterable[QueryGraph],
    solver: Solver,
    label: str = "",
) -> BatchSummary:
    """Run ``solver`` over a query batch, timing each query individually.

    The graph's index cache is built before timing starts, so the records
    measure queries rather than one-off index construction.
    """
    graph.index_cache()
    summary = BatchSummary(label=label)
    for query in queries:
        start = time.perf_counter()
        outcome = solver(graph, query)
        summary.add(QueryRecord(time.perf_counter() - start, **vars(outcome)))
    return summary


def run_executor_batch(
    graph: LabeledGraph,
    queries: List[QueryGraph],
    config: DSQLConfig,
    *,
    strategy: str = "serial",
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    label: str = "",
) -> BatchSummary:
    """Run a DSQL batch through :class:`~repro.parallel.BatchExecutor`.

    Unlike :func:`run_batch`, the pool answers queries concurrently, so only
    the *batch* wall-clock is physically meaningful; each record's
    ``seconds`` is the batch time divided by the batch size. Result fields
    (coverage, optimality, truncation flags) are bit-identical to a serial
    run by the executor's replay guarantee.
    """
    from repro.parallel.executor import BatchExecutor

    queries = list(queries)
    with BatchExecutor(
        graph, config=config, strategy=strategy, jobs=jobs, chunk_size=chunk_size
    ) as executor:
        graph.index_cache()  # built before timing, as in run_batch
        start = time.perf_counter()
        results = executor.run(queries)
        elapsed = time.perf_counter() - start
    per_query = elapsed / len(queries) if queries else 0.0
    records = [QueryRecord(per_query, **vars(_dsql_outcome(r))) for r in results]
    return BatchSummary(label=label, records=records)


def compare_solvers(
    graph: LabeledGraph,
    queries: List[QueryGraph],
    solvers: dict,
) -> dict:
    """Run several named solvers over the same batch; returns name->summary."""
    return {
        name: run_batch(graph, queries, solver, label=name)
        for name, solver in solvers.items()
    }
