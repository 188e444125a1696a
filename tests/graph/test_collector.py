"""The data graph stays out of CPython's cyclic collector.

A vertex's adjacency membership is a dict of neighbor -> ``None``. CPython
never tracks a dict that holds only ints and ``None``, so a graph of any size
adds a constant number of objects to a collection's walk, where one set per
vertex added ``|V|``. Every way a graph is written, copied or handed to a
worker must keep it so.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import random

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import worker_graph

LABELS = ["a", "b", "b", "a", "c"]
EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]


def tracked_memberships(graph: LabeledGraph):
    """The vertices whose membership container the collector tracks."""
    return [v for v, members in enumerate(graph._sets) if gc.is_tracked(members)]


def _report_from_worker(graph: LabeledGraph, conn) -> None:
    """Child body: the worker's copy, before and after a write to it."""
    twin = worker_graph(graph)
    before = tracked_memberships(twin)
    twin.add_edge(0, 4)
    twin.add_vertex("z")
    conn.send((before, tracked_memberships(twin), twin.has_edge(4, 0)))
    conn.close()


def test_no_write_makes_a_membership_container_tracked():
    graph = LabeledGraph(LABELS, EDGES)
    graph.index_cache()
    assert tracked_memberships(graph) == []
    v = graph.add_vertex("d")
    assert graph.add_edge(v, 0) and graph.add_edge(v, 4)
    assert graph.remove_edge(1, 2) and graph.remove_edge(v, 0)
    graph.mutate([("add_vertex", "e"), ("add_edge", 5, 6), ("remove_edge", 0, 1)])
    assert tracked_memberships(graph) == []
    assert graph.neighbor_set(5) == {4, 6} and not graph.has_edge(0, 1)
    twin = pickle.loads(pickle.dumps(graph))
    assert tracked_memberships(twin) == [] and twin.neighbor_set(5) == {4, 6}


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_workers_copy_stays_untracked(method):
    try:
        ctx = multiprocessing.get_context(method)
    except ValueError:  # pragma: no cover - platform-dependent
        pytest.skip(f"no {method} start method")
    graph = LabeledGraph(LABELS, EDGES)
    graph.index_cache()
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_report_from_worker, args=(graph, child_conn))
    process.start()
    child_conn.close()
    assert parent_conn.poll(120)
    assert parent_conn.recv() == ([], [], True)
    process.join(60)
    assert process.exitcode == 0
    parent_conn.close()


def test_a_build_adds_a_constant_number_of_tracked_objects():
    """20 000 vertices and 60 000 edges: a handful of lists, not one
    object per vertex. The collection between build and count untracks the
    rows, which are tuples of ints."""
    rng = random.Random(7)
    n = 20_000
    labels = [rng.choice("abcdefgh") for _ in range(n)]
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)]
    gc.collect()
    before = len(gc.get_objects())
    graph = LabeledGraph(labels, edges)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert graph.num_vertices == n and graph.num_edges > 2 * n
    assert added < 100, added
