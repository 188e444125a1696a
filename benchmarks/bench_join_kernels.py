"""Join-kernel and plan-cache gates. Writes ``BENCH_join.json`` at repo root.

Two claims from the plan/kernel work are held to numbers here:

* ``kernel_speedup`` — on a dense synthetic graph, expanding a pool through
  one bitset AND (``joinable_kernel`` + ``bitset_members``) must be at least
  2x the throughput of the scalar per-neighbor ``has_edge`` loop it replaced.
* ``compile_speedup`` — a warm ``PlanCache.get_or_compile`` (dict probe on
  the memoized canonical key) must be at least 10x faster than a cold
  ``compile_plan``.

The kernel comparison is also checked for result identity (``mismatches``
must be 0) so a fast-but-wrong kernel cannot pass.

Runs standalone (``python benchmarks/bench_join_kernels.py``) or under
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import random
import timeit
from pathlib import Path

from common import bench_graph, bench_queries
from repro.experiments.report import render_table
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.plans import PlanCache, compile_plan
from repro.kernels import bitset_members, bitset_of, joinable_kernel

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_join.json"

DATASET = "dblp"
NUM_QUERIES = 20
QUERY_EDGES = 4
REPEATS = 5

DENSE_N = 3000
DENSE_EDGES = 60_000
DENSE_PAIRS = 200

KERNEL_GATE_X = 2.0
COMPILE_GATE_X = 10.0


def dense_graph() -> LabeledGraph:
    """A deterministic dense two-label graph (avg degree ~40)."""
    rng = random.Random(2016)
    labels = [("X", "Y")[rng.random() < 0.2] for _ in range(DENSE_N)]
    edges = set()
    while len(edges) < DENSE_EDGES:
        u, v = rng.randrange(DENSE_N), rng.randrange(DENSE_N)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return LabeledGraph(labels, sorted(edges), name="dense-synth")


def _kernel_vs_scalar(graph):
    """Time the two expansions of 'pool members adjacent to both w1 and w2'."""
    cache = graph.index_cache()
    pool = sorted(v for v in range(graph.num_vertices) if graph.label(v) == "X")
    pool_mask = bitset_of(pool)
    rng = random.Random(7)
    pairs = [
        (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        for _ in range(DENSE_PAIRS)
    ]

    def scalar():
        return [
            [v for v in pool if graph.has_edge(v, w1) and graph.has_edge(v, w2)]
            for w1, w2 in pairs
        ]

    def kernel():
        return [
            bitset_members(
                joinable_kernel(
                    (cache.adjacency_mask(w1), cache.adjacency_mask(w2))
                )
                & pool_mask
            )
            for w1, w2 in pairs
        ]

    mismatches = sum(a != b for a, b in zip(scalar(), kernel()))  # also warms masks
    scalar_s = min(timeit.repeat(scalar, number=1, repeat=REPEATS))
    kernel_s = min(timeit.repeat(kernel, number=1, repeat=REPEATS))
    tested = len(pool) * len(pairs)
    return {
        "pool_size": len(pool),
        "pairs": len(pairs),
        "scalar_seconds": scalar_s,
        "kernel_seconds": kernel_s,
        "scalar_candidates_per_s": tested / scalar_s,
        "kernel_candidates_per_s": tested / kernel_s,
        "kernel_speedup_x": scalar_s / kernel_s,
        "kernel_mismatches": mismatches,
    }


def _compile_cold_vs_warm(graph, queries):
    """Cold compile_plan vs warm PlanCache probe, same index cache."""
    cache = graph.index_cache()
    for query in queries:  # warm pools + canonical keys out of the timing
        compile_plan(query, cache)
    pc = PlanCache()
    for query in queries:
        pc.get_or_compile(query, cache)

    def cold():
        for query in queries:
            compile_plan(query, cache)

    def warm():
        for query in queries:
            pc.get_or_compile(query, cache)

    cold_s = min(timeit.repeat(cold, number=1, repeat=REPEATS))
    warm_s = min(timeit.repeat(warm, number=1, repeat=REPEATS))
    return {
        "compile_queries": len(queries),
        "compile_cold_us": 1e6 * cold_s / len(queries),
        "compile_warm_us": 1e6 * warm_s / len(queries),
        "compile_speedup_x": cold_s / warm_s,
    }


def run_join_bench():
    graph = bench_graph(DATASET)
    graph.index_cache()
    queries = list(bench_queries(DATASET, QUERY_EDGES, NUM_QUERIES))
    dense = dense_graph()

    payload = {
        "dataset": DATASET,
        "dense_vertices": dense.num_vertices,
        "dense_edges": dense.num_edges,
        "repeats": REPEATS,
        "gate_kernel_speedup_x": KERNEL_GATE_X,
        "gate_compile_speedup_x": COMPILE_GATE_X,
    }
    payload.update(_kernel_vs_scalar(dense))
    payload.update(_compile_cold_vs_warm(graph, queries))
    payload["mismatches"] = payload["kernel_mismatches"]
    OUT_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return payload


def _report(payload) -> str:
    rows = [
        ["dense graph", f"{payload['dense_vertices']}v / {payload['dense_edges']}e"],
        ["kernel speedup", f"{payload['kernel_speedup_x']:.1f}x (gate >= 2x)"],
        [
            "kernel throughput",
            f"{payload['kernel_candidates_per_s']:,.0f} cand/s "
            f"(scalar {payload['scalar_candidates_per_s']:,.0f})",
        ],
        [
            "plan compile cold / warm",
            f"{payload['compile_cold_us']:.1f}us / {payload['compile_warm_us']:.1f}us",
        ],
        ["compile speedup", f"{payload['compile_speedup_x']:.1f}x (gate >= 10x)"],
        ["mismatches", str(payload["mismatches"])],
    ]
    return render_table(["metric", "value"], rows)


def test_join_kernels(benchmark):
    from common import emit

    payload = benchmark.pedantic(run_join_bench, rounds=1, iterations=1)
    emit("join_kernels", _report(payload))
    assert payload["mismatches"] == 0
    assert payload["kernel_speedup_x"] >= KERNEL_GATE_X
    assert payload["compile_speedup_x"] >= COMPILE_GATE_X


if __name__ == "__main__":
    out = run_join_bench()
    print(_report(out))
    print(f"\nwrote {OUT_PATH}")
