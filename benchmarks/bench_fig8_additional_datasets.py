"""Figure 8 — DSQL / DSQLh / COM on Yeast, Human and USpatent.

Paper (Appendix B.3): the trends of Figure 6 repeat; on the dense graphs
(Human, USpatent) plain DSQL and COM can blow past the time limit, and the
relaxed DSQLh variant stays fast with coverage still close to MAX.
"""

from __future__ import annotations

import pytest

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.core.config import DSQLConfig
from repro.experiments import paper
from repro.experiments.report import render_series
from repro.experiments.workloads import DEFAULT_K, DEFAULT_QUERY_EDGES, FIG8_DATASETS, K_GRID


def dsqlh_config(k: int) -> DSQLConfig:
    return DSQLConfig.dsqlh(k, node_budget=paper.DEFAULT_BUDGET)


def sweep_k(name: str):
    queries = bench_queries(name, DEFAULT_QUERY_EDGES, queries_per_point(5))
    return paper.sweep_k(bench_graph(name), queries, K_GRID, solvers={"DSQLh": dsqlh_config})


@pytest.mark.parametrize("name", FIG8_DATASETS)
def test_fig8_vary_k(benchmark, name):
    series = benchmark.pedantic(sweep_k, args=(name,), rounds=1, iterations=1)
    emit(f"fig8_{name}_vary_k", render_series("k", K_GRID, series))
    # Shape: DSQL beats COM on coverage at every k.
    for d, c in zip(series["DSQL cov"], series["COM cov"]):
        assert d >= c - 1e-9
    # Shape: DSQLh stays within a reasonable band of DSQL's coverage while
    # never being dramatically slower (the point of the relaxation).
    for dh, d in zip(series["DSQLh cov"], series["DSQL cov"]):
        assert dh >= 0.4 * d, name


def test_fig8_dsqlh_speedup_on_dense_graph(benchmark):
    """On the dense Human stand-in DSQLh must not be slower than DSQL."""
    graph = bench_graph("human")
    queries = bench_queries("human", DEFAULT_QUERY_EDGES, queries_per_point(5))

    def run_pair():
        config = DSQLConfig(k=DEFAULT_K, node_budget=paper.DEFAULT_BUDGET)
        dsql = paper.run_dsql(graph, queries, config)
        dsqlh = paper.run_dsql(graph, queries, dsqlh_config(DEFAULT_K), label="DSQLh")
        return dsql, dsqlh

    dsql, dsqlh = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    emit(
        "fig8_human_dsqlh",
        f"DSQL : {dsql.mean_millis:.2f} ms, cov {dsql.mean_coverage:.1f}\n"
        f"DSQLh: {dsqlh.mean_millis:.2f} ms, cov {dsqlh.mean_coverage:.1f}",
    )
    assert dsqlh.mean_millis <= dsql.mean_millis * 1.5
