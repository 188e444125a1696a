"""Appendix B.2 (second half) — multi-scan SWAPα and the schedule payoff.

Paper: "We have compared the coverage results from multiple scans. The
results show that the coverage improvement is not big with additional
scans. Note that the approximation ratios are above 0.5, the asymptotic
theoretical bound."

Here: on a shared embedding stream from the DBLP stand-in, run SWAPα for
1..4 scans with the Theorem-5 α schedule and report coverage per scan, the
greedy and exact references, and the realized ratios.
"""

from __future__ import annotations

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.baselines.enumerate_then_cover import generate_all
from repro.coverage.exact import optimal_coverage
from repro.coverage.greedy import greedy_max_coverage
from repro.coverage.core import coverage as coverage_of
from repro.coverage.multiscan import swap_alpha_multiscan
from repro.exceptions import ConfigError
from repro.experiments.report import render_table
from repro.experiments.workloads import DEFAULT_QUERY_EDGES

K = 20
GENERATION_BUDGET = 60_000


def run_study():
    graph = bench_graph("dblp")
    queries = bench_queries("dblp", DEFAULT_QUERY_EDGES, queries_per_point(4), seed=5)
    rows = []
    for i, query in enumerate(queries):
        stream, complete = generate_all(graph, query, node_budget=GENERATION_BUDGET)
        if len(stream) < K:
            continue
        single = swap_alpha_multiscan(stream, K, num_scans=1)
        multi = swap_alpha_multiscan(stream, K, num_scans=4)
        greedy = coverage_of(greedy_max_coverage(stream, K))
        try:
            # Exact reference on a truncated stream: each B&B node costs
            # O(n*q), so both the input size and the node cap stay small.
            opt, _ = optimal_coverage(stream[:300], K, max_embeddings=300, max_nodes=5_000)
        except ConfigError:
            opt = None
        rows.append(
            [
                f"q{i}",
                len(stream) if complete else f"{len(stream)}+",
                single.coverage,
                multi.coverage,
                greedy,
                opt if opt is not None else "-",
            ]
        )
    return rows


def test_appb2_multiscan(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    table = render_table(
        ["query", "#embeddings", "SWAPa x1", "SWAPa x4", "Greedy", "OPT(truncated)"],
        rows,
    )
    emit("appb2_multiscan", table + "\n(n+ = generation stopped at the node budget)")
    assert rows, "no query produced a large enough stream"
    for row in rows:
        single, multi, greedy = row[2], row[3], row[4]
        # Shape: extra scans never hurt, and the improvement is modest.
        assert multi >= single
        assert multi - single <= max(5, 0.2 * single)
        # Shape: greedy is an upper reference for the one-pass result.
        assert greedy >= single - 2
