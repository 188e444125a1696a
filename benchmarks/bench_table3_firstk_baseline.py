"""Table 3 — coverage of the best-known SQ method's first k matchings.

Paper: taking the first k = 40 embeddings gives coverage ~21-39 and
approximation ratios ~0.09-0.17 — the matchings are trapped in local areas.

Here: the same baseline on the stand-ins, side by side with DSQL to make
the gap explicit (the paper splits this across Tables 3 and Figure 6).
"""

from __future__ import annotations

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.core.config import DSQLConfig
from repro.experiments import paper
from repro.experiments.report import render_table
from repro.experiments.workloads import DEFAULT_K, DEFAULT_QUERY_EDGES

DATASETS = ["yeast", "epinion", "dblp", "youtube"]


def build_rows():
    rows = []
    config = DSQLConfig(k=DEFAULT_K, node_budget=paper.DEFAULT_BUDGET)
    for name in DATASETS:
        graph = bench_graph(name)
        queries = bench_queries(name, DEFAULT_QUERY_EDGES, queries_per_point(6))
        firstk = paper.table3_firstk(graph, queries, DEFAULT_K)
        dsql = paper.run_dsql(graph, queries, config)
        rows.append(
            [
                name,
                f"{firstk.mean_coverage:.1f}",
                f"{firstk.mean_ratio:.3f}",
                f"{dsql.mean_coverage:.1f}",
                f"{dsql.mean_ratio:.3f}",
            ]
        )
    return rows


def test_table3_firstk_coverage(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    table = render_table(
        ["dataset", "first-k coverage", "first-k ratio", "DSQL coverage", "DSQL ratio"],
        rows,
    )
    emit("table3_firstk_baseline", table)
    # Shape: on every dataset DSQL's mean coverage beats the first-k
    # baseline's (the paper's ratios 0.09-0.17 vs near-1 for DSQL).
    for row in rows:
        assert float(row[3]) >= float(row[1]), row[0]
    # And the baseline is far from optimal somewhere (paper: <= 0.17).
    assert min(float(r[2]) for r in rows) < 0.6
