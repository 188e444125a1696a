"""Comparing three ways to run exhaustive subgraph querying on one workload.

The library ships one Algorithm-1 backtracking engine and a class-level
counter, mirroring the systems the paper builds on:

* `QSearchEngine` as is — plain backtracking;
* `QSearchEngine` with `conflict_backjumping` / `bad_vertex_skipping` on —
  the Section 5.3/5.4 strategies applied to plain SQ, per the paper's
  closing remark;
* the BoostIso-style twin-compression counter — the [24] substrate the
  paper generated its Table 2-4 embedding streams with.

This script runs all three on a twin-rich casting graph and on the paper's
Example 6 fixture, showing identical answers at very different costs.

Run: ``python examples/engine_comparison.py``
"""

from __future__ import annotations

import random
import time

from repro.datasets import figure4
from repro.graph import LabeledGraph, QueryGraph
from repro.isomorphism import (
    CompressedGraph,
    QSearchEngine,
    count_embeddings_compressed,
)


def casting_graph(num_movies: int = 150, cast: int = 10, seed: int = 1) -> LabeledGraph:
    rng = random.Random(seed)
    labels, edges, vid = [], [], 0
    for _ in range(num_movies):
        movie = vid
        labels.append(f"Genre{rng.randrange(3)}")
        vid += 1
        for _ in range(cast):
            labels.append("Actor" if rng.random() < 0.7 else "Actress")
            edges.append((movie, vid))
            vid += 1
    return LabeledGraph(labels, edges, name="casting")


def compare(graph: LabeledGraph, query: QueryGraph, title: str) -> None:
    print(f"--- {title}: |V|={graph.num_vertices}, query {query.size} nodes")

    start = time.perf_counter()
    plain = QSearchEngine(graph, query, node_budget=500_000)
    plain_count = sum(1 for _ in plain.embeddings())
    plain_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    opt = QSearchEngine(
        graph, query, node_budget=500_000, conflict_backjumping=True, bad_vertex_skipping=True
    )
    opt_count = sum(1 for _ in opt.embeddings())
    opt_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    comp_count, complete = count_embeddings_compressed(graph, query)
    comp_ms = (time.perf_counter() - start) * 1000
    ratio = CompressedGraph(graph).compression_ratio()

    print(f"  plain      : {plain_count:>8} embeddings  {plain_ms:8.1f} ms  "
          f"({plain.nodes_expanded} expansions)")
    print(f"  conflict   : {opt_count:>8} embeddings  {opt_ms:8.1f} ms  "
          f"({opt.nodes_expanded} expansions, {opt.conflict_skips} skips)")
    print(f"  compressed : {comp_count:>8} count       {comp_ms:8.1f} ms  "
          f"(ratio {ratio:.2f}, complete={complete})")
    assert plain_count == opt_count == comp_count
    print("  all three agree.\n")


def main() -> None:
    graph = casting_graph()
    query = QueryGraph(
        ["Genre1", "Actor", "Actor", "Actress"],
        [(0, 1), (0, 2), (0, 3)],
    )
    compare(graph, query, "twin-rich casting graph")

    graph4, query4 = figure4(width=120)
    compare(graph4, query4, "Example 6 adversarial fixture")


if __name__ == "__main__":
    main()
