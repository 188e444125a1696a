"""Programmatic runners for every experiment in the paper's evaluation.

Each function regenerates the data behind one table or figure and returns
its numbers as plain records, dictionaries or lists, so one implementation
serves the benchmark suite (whose ``bench_*`` scripts only choose inputs,
render and assert shapes), the CLI ``experiment`` command, and ad-hoc
notebook use. Every :class:`~repro.experiments.measurement.BatchSummary`
here comes from :func:`~repro.experiments.runner.run_batch`.

All runners take explicit graphs and query batches; the caller chooses
them (the figure benches read their dataset panels from
:mod:`repro.experiments.workloads`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.enumerate_then_cover import STRATEGIES, generate_all, select_top_k
from repro.core.config import DSQLConfig, variant_config
from repro.core.dsql import DSQL
from repro.coverage.core import coverage as coverage_of
from repro.experiments.measurement import BatchSummary
from repro.experiments.runner import com_solver, dsql_solver, first_k_solver, run_batch
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.qsearch import count_embeddings

DEFAULT_BUDGET = 300_000


# ----------------------------------------------------------------------
# Generic batch execution
# ----------------------------------------------------------------------
def run_dsql(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    config: DSQLConfig,
    label: str = "DSQL",
) -> BatchSummary:
    """Timed DSQL batch with Section 7.3 MAX bookkeeping."""
    return run_batch(graph, queries, dsql_solver(config), label=label)


def run_com(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    k: int,
    node_budget: int = DEFAULT_BUDGET,
) -> BatchSummary:
    """Timed COM batch."""
    return run_batch(graph, queries, com_solver(k, node_budget=node_budget), label="COM")


# ----------------------------------------------------------------------
# Table 2 — exhaustive embedding counts
# ----------------------------------------------------------------------
@dataclass
class EmbeddingCountRow:
    """One Table-2 row for a dataset."""

    dataset: str
    average: float
    worst: int
    mean_seconds: float
    completed: int
    total: int


def table2_counts(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    dataset: str = "",
    node_budget: int = 400_000,
) -> EmbeddingCountRow:
    """Count all embeddings per query (budget = the paper's time limit)."""
    counts, times, completed = [], [], 0
    for query in queries:
        start = time.perf_counter()
        count, finished = count_embeddings(graph, query, node_budget=node_budget)
        times.append(time.perf_counter() - start)
        counts.append(count)
        completed += finished
    return EmbeddingCountRow(
        dataset=dataset or graph.name,
        average=statistics.fmean(counts) if counts else 0.0,
        worst=max(counts, default=0),
        mean_seconds=statistics.fmean(times) if times else 0.0,
        completed=completed,
        total=len(queries),
    )


# ----------------------------------------------------------------------
# Table 3 — the first-k baseline
# ----------------------------------------------------------------------
def table3_firstk(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    k: int,
    node_budget: int = 200_000,
) -> BatchSummary:
    """First-k coverage/ratio batch (the Table-3 strawman)."""
    return run_batch(graph, queries, first_k_solver(k, node_budget=node_budget), label="first-k")


# ----------------------------------------------------------------------
# Table 4 — enumerate-then-cover vs DSQL
# ----------------------------------------------------------------------
@dataclass
class StrategyOutcome:
    """Mean selection time and coverage of one strategy across a batch."""

    strategy: str
    mean_millis: float
    mean_coverage: float
    includes_generation: bool


@dataclass
class Table4Result:
    """All Table-4 columns for one dataset/batch."""

    outcomes: List[StrategyOutcome] = field(default_factory=list)
    generation_millis: float = 0.0

    def coverage_of(self, strategy: str) -> float:
        for o in self.outcomes:
            if o.strategy == strategy:
                return o.mean_coverage
        raise KeyError(strategy)


def table4_strategies(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    k: int,
    generation_budget: int = 150_000,
    dsql_config: Optional[DSQLConfig] = None,
) -> Table4Result:
    """Shared-generation pipeline for all strategies plus DSQL."""
    per = {s: {"cov": [], "ms": []} for s in STRATEGIES}
    gen_times: List[float] = []
    dsql_cov: List[float] = []
    dsql_ms: List[float] = []
    solver = DSQL(
        graph, config=dsql_config or DSQLConfig(k=k, node_budget=DEFAULT_BUDGET)
    )
    for query in queries:
        start = time.perf_counter()
        embeddings = generate_all(graph, query, node_budget=generation_budget)
        gen_times.append(time.perf_counter() - start)
        for strategy in STRATEGIES:
            start = time.perf_counter()
            members = select_top_k(embeddings, k, strategy)
            per[strategy]["ms"].append((time.perf_counter() - start) * 1000)
            per[strategy]["cov"].append(coverage_of(members))
        start = time.perf_counter()
        result = solver.query(query)
        dsql_ms.append((time.perf_counter() - start) * 1000)
        dsql_cov.append(result.coverage)

    outcomes = [
        StrategyOutcome(
            strategy=s,
            mean_millis=statistics.fmean(per[s]["ms"]),
            mean_coverage=statistics.fmean(per[s]["cov"]),
            includes_generation=True,
        )
        for s in STRATEGIES
    ]
    outcomes.append(
        StrategyOutcome(
            strategy="DSQL",
            mean_millis=statistics.fmean(dsql_ms),
            mean_coverage=statistics.fmean(dsql_cov),
            includes_generation=False,
        )
    )
    return Table4Result(
        outcomes=outcomes, generation_millis=statistics.fmean(gen_times) * 1000
    )


# ----------------------------------------------------------------------
# Figures 6 / 8 — DSQL vs COM sweeps
# ----------------------------------------------------------------------
def _series(
    graph: LabeledGraph,
    points: Sequence[Tuple[int, Sequence[QueryGraph]]],
    extra: Dict[str, Callable[[int], DSQLConfig]],
    node_budget: int,
) -> Dict[str, List[float]]:
    """DSQL, each ``extra`` solver, then COM at every ``(k, queries)`` point:
    ``"<label> cov"`` series, ``"MAX"``, then ``"<label> ms"`` series, with
    each extra solver's series right after DSQL's."""
    labels = ["DSQL", *extra, "COM"]
    series: Dict[str, List[float]] = {f"{label} cov": [] for label in labels}
    series["MAX"] = []
    series.update({f"{label} ms": [] for label in labels})
    for k, queries in points:
        runs = {"DSQL": run_dsql(graph, queries, DSQLConfig(k=k, node_budget=node_budget))}
        for label, factory in extra.items():
            runs[label] = run_dsql(graph, queries, factory(k), label=label)
        runs["COM"] = run_com(graph, queries, k, node_budget=node_budget)
        series["MAX"].append(runs["DSQL"].mean_max)
        for label, summary in runs.items():
            series[f"{label} cov"].append(summary.mean_coverage)
            series[f"{label} ms"].append(summary.mean_millis)
    return series


def sweep_k(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    k_values: Sequence[int],
    solvers: Optional[Dict[str, Callable[[int], DSQLConfig]]] = None,
    node_budget: int = DEFAULT_BUDGET,
) -> Dict[str, List[float]]:
    """Coverage/runtime series over ``k`` for DSQL, COM and optionally more.

    ``solvers`` maps extra labels to ``k -> DSQLConfig`` factories (used by
    Figure 8's DSQLh line). Returns per-series value lists aligned with
    ``k_values``; keys: ``"<label> cov"``, ``"<label> ms"``, plus ``"MAX"``.
    """
    return _series(graph, [(k, queries) for k in k_values], solvers or {}, node_budget)


def sweep_query_size(
    graph: LabeledGraph,
    batches: Dict[int, Sequence[QueryGraph]],
    k: int,
    node_budget: int = DEFAULT_BUDGET,
) -> Dict[str, List[float]]:
    """Coverage/runtime series over |E_Q| for DSQL and COM.

    ``batches`` maps query-edge-count to its query batch (ascending keys).
    """
    return _series(graph, [(k, batches[size]) for size in sorted(batches)], {}, node_budget)


# ----------------------------------------------------------------------
# Figure 9 — strategy ablation
# ----------------------------------------------------------------------
def ablation(
    graph: LabeledGraph,
    queries: Sequence[QueryGraph],
    k: int,
    variants: Sequence[str] = ("DSQL0", "DSQL1", "DSQL2", "DSQL3", "DSQL", "DSQLh"),
    node_budget: int = 400_000,
) -> Dict[str, BatchSummary]:
    """Run every named variant over the same batch."""
    out: Dict[str, BatchSummary] = {}
    for variant in variants:
        config = variant_config(variant, k, node_budget=node_budget)
        out[variant] = run_dsql(graph, queries, config, label=variant)
    return out
