"""Figure 9 — ablation of the Section 5 optimization strategies.

Paper (Appendix B.4): DSQL0 (localized search only) is much slower than
every optimized variant; the single-embedding strategy (DSQL1) recovers
most of the speed on sparse graphs; the skipping strategies (DSQL2/3,
DSQLh) matter most on dense graphs (Human).
"""

from __future__ import annotations

import pytest

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.core.config import variant_config
from repro.experiments import paper
from repro.experiments.report import render_series
from repro.experiments.workloads import DEFAULT_K, DEFAULT_QUERY_EDGES, FIG9_DATASETS

VARIANT_ORDER = ["DSQL0", "DSQL1", "DSQL2", "DSQL3", "DSQL", "DSQLh"]


def sweep(name: str):
    queries = bench_queries(name, DEFAULT_QUERY_EDGES, queries_per_point(5))
    out = paper.ablation(bench_graph(name), queries, DEFAULT_K, variants=VARIANT_ORDER)
    return (
        {v: summary.mean_millis for v, summary in out.items()},
        {v: summary.mean_coverage for v, summary in out.items()},
    )


@pytest.mark.parametrize("name", FIG9_DATASETS)
def test_fig9_ablation(benchmark, name):
    ms, cov = benchmark.pedantic(sweep, args=(name,), rounds=1, iterations=1)
    emit(
        f"fig9_{name}_ablation",
        render_series(
            "variant",
            VARIANT_ORDER,
            {
                "ms/query": [ms[v] for v in VARIANT_ORDER],
                "coverage": [cov[v] for v in VARIANT_ORDER],
            },
            value_format="{:.2f}",
        ),
    )
    # Shape: every optimized variant is at least as fast as DSQL0 (within
    # noise), and the full DSQL is not slower than DSQL0.
    assert ms["DSQL"] <= ms["DSQL0"] * 1.3, (name, ms)
    # Shape: the pruning-only variants preserve DSQL0's coverage.
    assert abs(cov["DSQL2"] - cov["DSQL0"]) < 1e-6
    assert abs(cov["DSQL3"] - cov["DSQL0"]) < 1e-6


def test_fig9_full_vs_dsql0_kernel(benchmark):
    """Timed kernel: the full-DSQL single query used for ablation ratios."""
    from repro.core.dsql import DSQL

    graph = bench_graph("human")
    query = bench_queries("human", DEFAULT_QUERY_EDGES, 1)[0]
    solver = DSQL(graph, config=variant_config("DSQL", DEFAULT_K, node_budget=400_000))
    benchmark(lambda: solver.query(query))
