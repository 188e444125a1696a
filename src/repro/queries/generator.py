"""Random query workload generation (Section 7, "Query Set").

The paper's generator: "The generator begins with an empty Q, and randomly
picks a vertex u from G, puts it into Q, and continues to randomly choose an
edge e = (u, v) incident to a vertex u in Q from E, and adds v and e to Q,
until there are z edges in Q." Query *size* in the experiments is the edge
count ``z = |E_Q|`` (1..10, default 5).

:func:`random_query` reproduces that process; :func:`query_set` builds the
1000-query batches (parameterized down for Python-scale benchmarking).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Set, Tuple

from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph

_MAX_RESTARTS = 200


def random_query(
    graph: LabeledGraph,
    num_edges: int,
    rng: Optional[random.Random] = None,
) -> QueryGraph:
    """Sample a connected query subgraph of ``graph`` with ``num_edges`` edges.

    The walk grows an edge set: at each step a uniformly random vertex of the
    current query (degree-weighted through neighbor choice, as in the
    paper's edge-incident sampling) contributes a random incident data edge;
    the edge (and its possibly-new endpoint) joins the query. If the region
    around a seed vertex cannot supply ``num_edges`` distinct edges (e.g. a
    tiny component), the walk restarts from a new seed.

    Raises :class:`~repro.exceptions.DatasetError` if the graph cannot host
    any query of the requested size.
    """
    if num_edges < 1:
        raise DatasetError(f"query must have at least 1 edge, got {num_edges}")
    if graph.num_edges < num_edges:
        raise DatasetError(
            f"data graph has {graph.num_edges} edges; cannot sample a "
            f"{num_edges}-edge query"
        )
    rng = rng or random.Random()

    for _ in range(_MAX_RESTARTS):
        result = _grow_query(graph, num_edges, rng)
        if result is not None:
            vertices, edges = result
            return _densify(graph, vertices, edges)
    raise DatasetError(
        f"could not sample a connected {num_edges}-edge query after "
        f"{_MAX_RESTARTS} restarts; the graph's components may be too small"
    )


def _grow_query(
    graph: LabeledGraph,
    num_edges: int,
    rng: random.Random,
) -> Optional[Tuple[List[int], Set[Tuple[int, int]]]]:
    """One growth attempt; ``None`` when the seed's region is too small."""
    seed = rng.randrange(graph.num_vertices)
    if graph.degree(seed) == 0:
        return None
    vertices: List[int] = [seed]
    vertex_set: Set[int] = {seed}
    edges: Set[Tuple[int, int]] = set()

    # Per step, sample an incident edge not yet chosen. A bounded number of
    # rejection-sampling trials keeps this O(1) expected on normal graphs; a
    # final exhaustive sweep guarantees progress whenever progress is possible.
    while len(edges) < num_edges:
        added = False
        for _ in range(32):
            u = vertices[rng.randrange(len(vertices))]
            nbrs = graph.neighbors(u)
            if not nbrs:
                continue
            v = rng.choice(tuple(nbrs))
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                edges.add(key)
                if v not in vertex_set:
                    vertex_set.add(v)
                    vertices.append(v)
                added = True
                break
        if not added:
            frontier = [
                (u, v)
                for u in vertices
                for v in graph.neighbors(u)
                if ((u, v) if u < v else (v, u)) not in edges
            ]
            if not frontier:
                return None
            u, v = frontier[rng.randrange(len(frontier))]
            edges.add((u, v) if u < v else (v, u))
            if v not in vertex_set:
                vertex_set.add(v)
                vertices.append(v)
    return vertices, edges


def _densify(
    graph: LabeledGraph,
    vertices: List[int],
    edges: Set[Tuple[int, int]],
) -> QueryGraph:
    """Map sampled data vertices to dense query node ids, keeping labels."""
    remap = {v: i for i, v in enumerate(vertices)}
    labels = [graph.label(v) for v in vertices]
    query_edges = [(remap[u], remap[v]) for u, v in edges]
    return QueryGraph(labels, query_edges)


def query_set(
    graph: LabeledGraph,
    num_edges: int,
    count: int,
    seed: Optional[int] = None,
) -> List[QueryGraph]:
    """A batch of ``count`` random queries of the same edge count.

    Mirrors the paper's "1000 query graphs in one query set with the same
    query size"; pass ``seed`` for reproducible batches.
    """
    rng = random.Random(seed)
    return [random_query(graph, num_edges, rng) for _ in range(count)]


def iter_query_sets(
    graph: LabeledGraph,
    sizes: List[int],
    count: int,
    seed: Optional[int] = None,
) -> Iterator[Tuple[int, List[QueryGraph]]]:
    """Yield ``(size, batch)`` pairs across several query sizes.

    Derives a distinct but deterministic seed per size so batches do not
    alias each other when ``seed`` is fixed.
    """
    for size in sizes:
        sub_seed = None if seed is None else seed * 1_000_003 + size
        yield size, query_set(graph, size, count, seed=sub_seed)
