"""Section 5 micro-benchmarks — the optimization strategies on their own turf.

Complements the Figure 9 ablation with the paper's adversarial scenarios at
near-paper widths: Example 6's ~1000-wide useless fan (conflict tables) and
Example 7's quadratic re-scan (bad vertices), plus the §5.3/§5.4 strategies
applied to plain subgraph querying (the paper's closing remark of §5.4).
"""

from __future__ import annotations

from common import emit
from repro.core.config import DSQLConfig
from repro.core.phase1 import run_phase1
from repro.core.state import SearchStats
from repro.datasets.paper_figures import figure4, figure5
from repro.experiments.report import render_table
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.qsearch import QSearchEngine


def _expansions(graph, query, config) -> int:
    stats = SearchStats()
    run_phase1(graph, query, config, CandidateIndex(graph, query), stats)
    return stats.nodes_expanded


def run_conflict_fixture():
    graph, query = figure4(width=300)
    return {
        "DSQL0": _expansions(graph, query, DSQLConfig.dsql0(5)),
        "DSQL2": _expansions(graph, query, DSQLConfig.dsql2(5)),
        "DSQL3": _expansions(graph, query, DSQLConfig.dsql3(5)),
    }


def run_bad_vertex_fixture():
    graph, query = figure5(width=60, teasers=30)
    return {
        "DSQL0": _expansions(graph, query, DSQLConfig.dsql0(5)),
        "DSQL2": _expansions(graph, query, DSQLConfig.dsql2(5)),
        "DSQL3": _expansions(graph, query, DSQLConfig.dsql3(5)),
    }


def test_sec5_conflict_tables(benchmark):
    counts = benchmark.pedantic(run_conflict_fixture, rounds=1, iterations=1)
    emit(
        "sec5_conflict_tables",
        render_table(
            ["variant", "node expansions"], [[k, v] for k, v in counts.items()]
        ),
    )
    # Example 6's claim: node skipping collapses the useless fan.
    assert counts["DSQL2"] * 10 < counts["DSQL0"]


def test_sec5_bad_vertices(benchmark):
    counts = benchmark.pedantic(run_bad_vertex_fixture, rounds=1, iterations=1)
    emit(
        "sec5_bad_vertices",
        render_table(
            ["variant", "node expansions"], [[k, v] for k, v in counts.items()]
        ),
    )
    # Example 7's claim: bad-vertex marks collapse the quadratic re-scan
    # precisely where conflict tables alone do nothing.
    assert counts["DSQL2"] == counts["DSQL0"]
    assert counts["DSQL3"] * 5 < counts["DSQL2"]


def test_sec5_strategies_on_plain_sq(benchmark):
    """§5.4's remark: the strategies also speed up plain subgraph querying."""
    graph, query = figure4(width=300)

    def run_pair():
        plain = QSearchEngine(graph, query)
        plain_count = sum(1 for _ in plain.embeddings())
        opt = QSearchEngine(
            graph, query, conflict_backjumping=True, bad_vertex_skipping=True
        )
        opt_count = sum(1 for _ in opt.embeddings())
        return plain, plain_count, opt, opt_count

    plain, plain_count, opt, opt_count = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    emit(
        "sec5_plain_sq",
        f"plain SQ : {plain.nodes_expanded} expansions, {plain_count} embeddings\n"
        f"optimized: {opt.nodes_expanded} expansions, {opt_count} embeddings",
    )
    assert opt_count == plain_count  # exactness
    assert opt.nodes_expanded < plain.nodes_expanded  # pruning
