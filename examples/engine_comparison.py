"""Two ways to run the one exhaustive subgraph-querying engine.

The library ships one Algorithm-1 backtracking engine, `QSearchEngine`, and
this script runs it two ways:

* as is — plain backtracking;
* with `conflict_backjumping` / `bad_vertex_skipping` on — the Section
  5.3/5.4 strategies applied to plain SQ, per the paper's closing remark;
  they skip failed subtrees, so they can only save expansions.

It runs both on a casting graph and on the paper's Example 6 fixture; the
two counts agree on both.

Run: ``python examples/engine_comparison.py``
"""

from __future__ import annotations

import random
import time

from repro.datasets import figure4
from repro.graph import LabeledGraph, QueryGraph
from repro.isomorphism import QSearchEngine


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
    runs = {
        "plain": {},
        "conflict": {"conflict_backjumping": True, "bad_vertex_skipping": True},
    }
    counts = []
    for name, options in runs.items():
        start = time.perf_counter()
        engine = QSearchEngine(graph, query, node_budget=500_000, **options)
        count = sum(1 for _ in engine.embeddings())
        ms = (time.perf_counter() - start) * 1000
        print(f"  {name:<10} : {count:>8} embeddings  {ms:8.1f} ms  "
              f"({engine.nodes_expanded} expansions, {engine.conflict_skips} skips)")
        assert not engine.budget_exhausted
        counts.append(count)
    assert len(set(counts)) == 1
    print("  both agree.\n")


def main() -> None:
    graph = casting_graph()
    query = QueryGraph(
        ["Genre1", "Actor", "Actor", "Actress"],
        [(0, 1), (0, 2), (0, 3)],
    )
    compare(graph, query, "casting graph")

    graph4, query4 = figure4(width=120)
    compare(graph4, query4, "Example 6 adversarial fixture")


if __name__ == "__main__":
    main()
