"""Experiment harness: measurement, batch running, reporting, workloads."""

from repro.experiments.measurement import BatchSummary, QueryRecord
from repro.experiments.report import (
    SUMMARY_HEADERS,
    render_series,
    render_summaries,
    render_table,
    summary_row,
)
from repro.experiments.paper import (
    ablation,
    run_com,
    run_dsql,
    sweep_k,
    sweep_query_size,
    table2_counts,
    table3_firstk,
    table4_strategies,
)
from repro.experiments.runner import (
    SolverOutcome,
    com_solver,
    dsql_solver,
    first_k_solver,
    random_start_solver,
    run_batch,
)
from repro.experiments.workloads import (
    DEFAULT_K,
    DEFAULT_QUERY_EDGES,
    FIG6_DATASETS,
    FIG8_DATASETS,
    FIG9_DATASETS,
    K_GRID,
    LABEL_DENSITY_GRID,
    QUERY_SIZE_GRID,
    batch_size,
    bench_scale_override,
)

__all__ = [
    "QueryRecord",
    "run_dsql",
    "run_com",
    "table2_counts",
    "table3_firstk",
    "table4_strategies",
    "sweep_k",
    "sweep_query_size",
    "ablation",
    "BatchSummary",
    "render_table",
    "render_series",
    "render_summaries",
    "summary_row",
    "SUMMARY_HEADERS",
    "SolverOutcome",
    "run_batch",
    "dsql_solver",
    "com_solver",
    "first_k_solver",
    "random_start_solver",
    "batch_size",
    "bench_scale_override",
    "DEFAULT_K",
    "DEFAULT_QUERY_EDGES",
    "K_GRID",
    "QUERY_SIZE_GRID",
    "LABEL_DENSITY_GRID",
    "FIG6_DATASETS",
    "FIG8_DATASETS",
    "FIG9_DATASETS",
]
