"""Determinism regression tests.

Every iteration order in the graph layer is sorted by construction
(``neighbors`` tuples, ``edges`` lexicographic), so two independent builds of
the same instance must produce *byte-identical* serialized results. This is
the property that makes experiment reports reproducible run-to-run.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, build_graph

LABELS = ["a", "b", "b", "a", "c", "b"]
EDGES = [(5, 0), (1, 2), (0, 1), (3, 1), (4, 3), (2, 0), (5, 2)]


@pytest.mark.parametrize("storage", STORAGE_STATES)
def test_iteration_orders_sorted(storage):
    g = build_graph(LABELS, EDGES, storage=storage)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)


@pytest.mark.parametrize("storage", STORAGE_STATES)
def test_iteration_independent_of_input_order(storage):
    g1 = build_graph(LABELS, EDGES, storage=storage)
    g2 = build_graph(LABELS, list(reversed(EDGES)), storage=storage)
    assert list(g1.edges()) == list(g2.edges())
    for v in g1.vertices():
        assert g1.neighbors(v) == g2.neighbors(v)


def _serialized_batch_report(seed: int) -> bytes:
    """Build graph + queries from scratch and serialize the full results."""
    graph = make_dataset("dblp", scale=0.002, seed=seed)
    queries = query_set(graph, 3, 4, seed=seed + 1)
    session = DSQL(graph, config=DSQLConfig(k=4, node_budget=200_000))
    payload = [
        {
            "embeddings": [list(e) for e in r.embeddings],
            "coverage": r.coverage,
            "optimal": r.optimal,
            "reason": r.optimal_reason,
            "level": r.level,
        }
        for r in (session.query(q) for q in queries)
    ]
    return json.dumps(payload, sort_keys=True).encode()


def test_reports_byte_identical_across_builds():
    assert _serialized_batch_report(seed=5) == _serialized_batch_report(seed=5)


def test_embeddings_are_plain_ints():
    """numpy scalars must never leak into results (json.dumps would fail)."""
    graph = LabeledGraph(LABELS, EDGES)
    (query,) = query_set(graph, 2, 1, seed=0)
    result = DSQL(graph, k=3).query(query)
    for emb in result.embeddings:
        assert all(type(v) is int for v in emb)
    json.dumps([list(e) for e in result.embeddings])  # must not raise
