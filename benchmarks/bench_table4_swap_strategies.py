"""Table 4 — enumerate-all + k-coverage strategies vs DSQL (DBLP).

Paper (Appendix B.2): with all embeddings pre-generated (time ``t``),
SWAP1/SWAP2/SWAP_A/SWAPα reach coverage ~112-123, Greedy ~118-127 at
higher selection cost, while DSQL reaches 127.4 in ~10ms without any
pre-generation. The qualitative claims: (a) generation dominates the
pipeline cost, (b) Greedy >= swaps in coverage, (c) DSQL matches the best
pipelines at a fraction of the total time.

Generation stops at ``GENERATION_BUDGET`` search nodes. A query whose
enumeration trips it feeds the pipelines a prefix of its embeddings, not
all of them; the footer and every shape assert say how many did.
"""

from __future__ import annotations

from common import bench_graph, bench_queries, emit, queries_per_point
from repro.baselines.enumerate_then_cover import STRATEGIES
from repro.experiments import paper
from repro.experiments.report import render_table
from repro.experiments.workloads import DEFAULT_K, DEFAULT_QUERY_EDGES

GENERATION_BUDGET = 60_000


def build_rows():
    queries = bench_queries("dblp", DEFAULT_QUERY_EDGES, queries_per_point(5))
    result = paper.table4_strategies(
        bench_graph("dblp"), queries, DEFAULT_K, generation_budget=GENERATION_BUDGET
    )
    rows = [
        [o.strategy, f"{o.mean_millis:.2f}" + ("+t" if o.includes_generation else ""),
         f"{o.mean_coverage:.1f}"]
        for o in result.outcomes
    ]
    truncated = f"{result.truncated} of {len(queries)} streams truncated"
    return rows, result.generation_millis, truncated


def test_table4_swap_strategies(benchmark):
    rows, t, truncated = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    table = render_table(["strategy", "time (ms)", "coverage"], rows)
    emit(
        "table4_swap_strategies",
        table + f"\n(t = generation = {t:.1f} ms/query; {truncated}"
        f" at the {GENERATION_BUDGET:,}-node budget)",
    )

    cov = {row[0]: float(row[2]) for row in rows}
    ms = {row[0]: float(str(row[1]).replace("+t", "")) for row in rows}
    # Shape (a): generation dominates the indexed selection stages (the
    # paper's SWAP implementations are PNP-indexed; ours indexes SWAPalpha
    # and SWAP2 — SWAP0/SWAP1/SWAP_A stay deliberately naive baselines).
    assert t > ms["SWAPalpha"] * 0.5, truncated
    # Shape (b): Greedy's coverage is at least each single-pass swap's - slack.
    for s in ("SWAP1", "SWAP2", "SWAP_A", "SWAPalpha"):
        assert cov["Greedy"] >= cov[s] - 2.0, (s, truncated)
    # Shape (c): DSQL is within a small factor of the best pipeline coverage
    # while skipping generation entirely.
    best = max(cov[s] for s in STRATEGIES)
    assert cov["DSQL"] >= 0.7 * best, truncated
    assert ms["DSQL"] < t + max(ms.values()), truncated
