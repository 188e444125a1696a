"""Figure 6 — DSQL vs COM vs MAX across k and |E_Q| on six datasets.

Paper panels (a)-(l): for wordnet/epinion/dblp/youtube/dbpedia/imdb,
coverage ("# Nodes") and runtime while varying k in {10..50} (|E_Q| = 5)
and |E_Q| in {1..10} (k = 40). Claims to reproduce:

* DSQL's coverage is close to MAX and well above COM's;
* coverage grows with both k and |E_Q| for DSQL;
* COM is fast on small queries but degrades (the paper's 5-hour timeouts
  appear here as budget exhaustion).
"""

from __future__ import annotations

import pytest

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.core.config import DSQLConfig
from repro.experiments import paper
from repro.experiments.report import render_series
from repro.experiments.workloads import (
    DEFAULT_K,
    DEFAULT_QUERY_EDGES,
    FIG6_DATASETS,
    K_GRID,
    QUERY_SIZE_GRID,
)


def sweep_k(name: str):
    queries = bench_queries(name, DEFAULT_QUERY_EDGES, queries_per_point(5))
    return paper.sweep_k(bench_graph(name), queries, K_GRID)


def sweep_query_size(name: str):
    batches = {z: bench_queries(name, z, queries_per_point(4)) for z in QUERY_SIZE_GRID}
    return paper.sweep_query_size(bench_graph(name), batches, DEFAULT_K)


@pytest.mark.parametrize("name", FIG6_DATASETS)
def test_fig6_vary_k(benchmark, name):
    series = benchmark.pedantic(sweep_k, args=(name,), rounds=1, iterations=1)
    emit(f"fig6_{name}_vary_k", render_series("k", K_GRID, series))
    # Shape: DSQL coverage >= COM coverage at every k.
    for d, c in zip(series["DSQL cov"], series["COM cov"]):
        assert d >= c - 1e-9
    # Shape: DSQL coverage non-decreasing in k (more slots, never less).
    cov = series["DSQL cov"]
    assert all(b >= a - 1.5 for a, b in zip(cov, cov[1:]))


@pytest.mark.parametrize("name", ["dblp", "youtube"])
def test_fig6_vary_query_size(benchmark, name):
    series = benchmark.pedantic(sweep_query_size, args=(name,), rounds=1, iterations=1)
    emit(f"fig6_{name}_vary_size", render_series("|E_Q|", QUERY_SIZE_GRID, series))
    # Shape: DSQL dominates COM on coverage for most sizes.
    wins = sum(
        1 for d, c in zip(series["DSQL cov"], series["COM cov"]) if d >= c - 1e-9
    )
    assert wins >= int(0.8 * len(QUERY_SIZE_GRID))
    # Shape: larger queries cover more vertices (coarse monotonicity:
    # the largest size beats the smallest).
    assert series["DSQL cov"][-1] > series["DSQL cov"][0]


def test_fig6_single_query_kernel(benchmark):
    """Timed kernel: one default-configuration DSQL query on dblp."""
    from repro.core.dsql import DSQL

    graph = bench_graph("dblp")
    query = bench_queries("dblp", DEFAULT_QUERY_EDGES, 1)[0]
    solver = DSQL(graph, config=DSQLConfig(k=DEFAULT_K, node_budget=paper.DEFAULT_BUDGET))
    benchmark(lambda: solver.query(query))
