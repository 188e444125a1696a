"""Unit tests for the one graph storage class (repro.graph.csr)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.csr import CSRBackend, intern_labels, normalize_edges
from tests.conftest import STORAGE_STATES, build_graph

LABELS = ["a", "b", "b", "a", "c"]
EDGES = [(0, 1), (1, 2), (2, 0), (3, 1), (1, 0), (4, 3)]  # (1, 0) duplicates (0, 1)


@pytest.fixture(params=STORAGE_STATES)
def backend(request):
    return build_graph(LABELS, EDGES, storage=request.param).backend


# ----------------------------------------------------------------------
# normalize_edges / intern_labels
# ----------------------------------------------------------------------
def test_normalize_edges_dedups_and_sorts():
    assert normalize_edges(5, EDGES) == [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]


def test_normalize_edges_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"outside \[0, 3\)"):
        normalize_edges(3, [(0, 3)])


def test_normalize_edges_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        normalize_edges(3, [(1, 1)])


def test_intern_labels_first_appearance_order():
    table, to_id, ids = intern_labels(LABELS)
    assert table == ["a", "b", "c"]
    assert to_id == {"a": 0, "b": 1, "c": 2}
    assert ids == [0, 1, 1, 0, 2]


def test_unhashable_label_is_a_graph_error():
    with pytest.raises(GraphError, match="not hashable"):
        intern_labels(["a", ["b"]])
    b = CSRBackend(LABELS, EDGES)
    with pytest.raises(GraphError, match="not hashable"):
        b.add_vertex(["x"])
    assert b.num_vertices == 5 and b.labels == LABELS  # nothing appended


# ----------------------------------------------------------------------
# Semantics shared by both storage states
# ----------------------------------------------------------------------
def test_basic_accessors(backend):
    assert backend.num_vertices == 5
    assert backend.num_edges == 5
    assert backend.label(2) == "b"
    assert backend.degree(1) == 3
    assert backend.degree_sequence() == [2, 3, 2, 2, 1]


def test_neighbors_sorted_plain_ints(backend):
    nbrs = backend.neighbors(1)
    assert nbrs == (0, 2, 3)
    assert all(type(v) is int for v in nbrs)


def test_edges_sorted_once_each(backend):
    assert list(backend.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]


def test_has_edge_symmetric(backend):
    assert backend.has_edge(0, 1) and backend.has_edge(1, 0)
    assert not backend.has_edge(0, 4)
    assert not backend.has_edge(0, 3)


def test_label_interning(backend):
    assert backend.label_table == ["a", "b", "c"]
    assert backend.label_to_id == {"a": 0, "b": 1, "c": 2}
    assert list(backend.label_ids) == [0, 1, 1, 0, 2]
    assert list(backend.degree_array) == [2, 3, 2, 2, 1]


# ----------------------------------------------------------------------
# CSR specifics
# ----------------------------------------------------------------------
def test_storage_states_are_the_two_extremes():
    frozen = build_graph(LABELS, EDGES, storage="csr").backend
    assert frozen.indices.size == 2 * frozen.num_edges and not frozen.touched_vertices
    grown = build_graph(LABELS, EDGES, storage="set").backend
    assert grown.indices.size == 0 and grown.touched_vertices == set(range(5))
    for v in range(5):
        assert list(grown.neighbors_array(v)) == list(frozen.neighbors_array(v))


def test_csr_arrays_consistent():
    b = CSRBackend(LABELS, EDGES)
    assert list(b.indptr) == [0, 2, 5, 7, 9, 10]
    # Each row is the sorted neighbor list.
    for v in range(5):
        row = b.indices[b.indptr[v] : b.indptr[v + 1]]
        assert list(row) == list(b.neighbors(v))
        assert list(row) == sorted(row)


def test_csr_neighbors_array_zero_copy():
    b = CSRBackend(LABELS, EDGES)
    row = b.neighbors_array(1)
    assert row.base is b.indices
    assert list(row) == [0, 2, 3]


def test_csr_scalar_probes_agree():
    b = CSRBackend(LABELS, EDGES)
    for u in range(5):
        for v in range(5):
            assert b.has_edge(u, v) == b.has_edge_searchsorted(u, v)


def test_csr_has_edges_vectorized():
    b = CSRBackend(LABELS, EDGES)
    targets = np.array([0, 1, 2, 3, 4])
    assert list(b.has_edges(1, targets)) == [True, False, True, True, False]
    # Isolated row: all-false without error.
    iso = CSRBackend(["x", "y"], [])
    assert list(iso.has_edges(0, targets[:2])) == [False, False]


def test_empty_graph():
    b = CSRBackend([])
    assert b.num_vertices == 0 and b.num_edges == 0
    assert list(b.edges()) == []
    assert list(b.degree_array) == []
