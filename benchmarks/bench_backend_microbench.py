"""Shared-index-cache micro-benchmark: candidate builds, shared vs rebuilt.

One claim of the shared-index-cache refactor is measured on the DBLP
stand-in and written to ``BENCH_backend.json`` at the repo root:

* ``candidate_build`` — building :class:`CandidateIndex` for a batch of
  queries against one shared :class:`GraphIndexCache` must amortize to at
  least 2x faster than rebuilding the per-graph index for every query (the
  seed behaviour).

Runs standalone (``python benchmarks/bench_backend_microbench.py``) or under
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import timeit
from pathlib import Path

from common import bench_graph, bench_queries, emit
from repro.experiments.report import render_table
from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import GraphIndexCache

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backend.json"

DATASET = "dblp"
NUM_QUERIES = 12
QUERY_EDGES = 5
REPEATS = 5


def time_candidate_build(graph, queries):
    """Total seconds to build every query's CandidateIndex, two regimes.

    ``rebuild`` recomputes the per-graph index for each query — the seed
    behaviour, where label/signature state was derived per query. ``shared``
    builds one :class:`GraphIndexCache` and restricts per query.
    """

    def rebuild_all():
        for query in queries:
            fresh = GraphIndexCache(graph)
            CandidateIndex(graph, query, cache=fresh)

    def shared_all():
        shared = GraphIndexCache(graph)
        for query in queries:
            CandidateIndex(graph, query, cache=shared)

    rebuild = min(timeit.repeat(rebuild_all, number=1, repeat=REPEATS))
    shared = min(timeit.repeat(shared_all, number=1, repeat=REPEATS))
    return {
        "queries": len(queries),
        "rebuild_seconds": rebuild,
        "shared_seconds": shared,
        "speedup": rebuild / shared,
    }


def run_microbench():
    graph = bench_graph(DATASET)
    queries = bench_queries(DATASET, QUERY_EDGES, NUM_QUERIES)
    payload = {
        "dataset": DATASET,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "candidate_build": time_candidate_build(graph, queries),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return payload


def _report(payload) -> str:
    cb = payload["candidate_build"]
    return render_table(
        ["metric", "value"],
        [
            ["dataset", payload["dataset"]],
            ["|V| / |E|", f"{payload['num_vertices']} / {payload['num_edges']}"],
            [f"candidate build x{cb['queries']} rebuild (s)", f"{cb['rebuild_seconds']:.4f}"],
            [f"candidate build x{cb['queries']} shared (s)", f"{cb['shared_seconds']:.4f}"],
            ["candidate build speedup", f"{cb['speedup']:.2f}x"],
        ],
    )


def test_backend_microbench(benchmark):
    payload = benchmark.pedantic(run_microbench, rounds=1, iterations=1)
    emit("backend_microbench", _report(payload))
    # The refactor's headline claim, as a hard gate.
    assert payload["candidate_build"]["queries"] >= 10
    assert payload["candidate_build"]["speedup"] >= 2.0


if __name__ == "__main__":
    out = run_microbench()
    print(_report(out))
    print(f"\nwrote {OUT_PATH}")
