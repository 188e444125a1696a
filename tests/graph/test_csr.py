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


# ----------------------------------------------------------------------
# Compaction: the new arrays are spliced from the old ones
# ----------------------------------------------------------------------
RING = 8
RING_LABELS = list("abcdabcd")
RING_EDGES = [(v, (v + 1) % RING) for v in range(RING)] + [(0, 4), (2, 6)]


def compact_and_check(backend: CSRBackend) -> None:
    """Compact; the arrays must then spell every live row, and the ones they
    replace must not have been written."""
    old_indptr, old_indices = backend.indptr, backend.indices
    kept_indptr, kept_indices = old_indptr.copy(), old_indices.copy()
    rows = [backend.neighbors(v) for v in range(backend.num_vertices)]
    backend.compact()
    indptr, indices = backend.indptr, backend.indices
    assert indices is not old_indices and indptr is not old_indptr
    assert np.array_equal(old_indptr, kept_indptr) and np.array_equal(old_indices, kept_indices)
    assert indptr.dtype == np.int64 and indices.dtype == np.int32
    assert len(indptr) == backend.num_vertices + 1
    assert indptr[0] == 0 and indptr[-1] == 2 * backend.num_edges == len(indices)
    for v, row in enumerate(rows):
        assert tuple(indices[indptr[v] : indptr[v + 1]]) == row == backend.neighbors(v)
        assert backend.neighbors_array(v).base is indices  # served off the base again
    assert not backend.touched_vertices and backend.delta_size == 0
    attached = CSRBackend.from_arrays(
        indptr, indices, backend.label_ids, backend.label_table, backend.degree_array
    )
    assert [attached.neighbors(v) for v in range(attached.num_vertices)] == rows
    assert attached.labels == backend.labels


def _touch_first(b):
    b.add_edge(0, 2)


def _touch_last(b):
    b.remove_edge(RING - 1, 0)


def _touch_adjacent(b):
    b.add_edge(3, 5)
    b.add_edge(4, 6)  # 3, 4, 5, 6: one unbroken overlay run


def _grow_a_row(b):
    b.add_edge(1, 3)
    b.add_edge(1, 5)
    b.add_edge(1, 6)


def _shrink_a_row(b):
    b.remove_edge(0, 4)


def _empty_a_row(b):
    b.remove_edge(1, 0)
    b.remove_edge(1, 2)


def _restore_a_row(b):
    b.remove_edge(2, 6)
    b.add_edge(2, 6)  # still in the overlay, equal to its base row


def _add_isolated_vertices(b):
    b.add_vertex("a")
    b.add_vertex("z")


def _add_connected_vertices(b):
    v = b.add_vertex("a")
    w = b.add_vertex("b")
    b.add_edge(v, 3)
    b.add_edge(v, w)
    b.add_vertex("c")  # trailing isolated one after rows with edges


def _touch_nothing(b):
    pass


def _touch_everything(b):
    for v in range(RING):
        b.remove_edge(v, (v + 1) % RING)


@pytest.mark.parametrize(
    "mutate",
    [
        _touch_first,
        _touch_last,
        _touch_adjacent,
        _grow_a_row,
        _shrink_a_row,
        _empty_a_row,
        _restore_a_row,
        _add_isolated_vertices,
        _add_connected_vertices,
        _touch_nothing,
        _touch_everything,
    ],
)
def test_compact_splices_every_row_into_place(mutate):
    b = CSRBackend(RING_LABELS, RING_EDGES)
    mutate(b)
    compact_and_check(b)
    compact_and_check(b)  # twice in a row: the second has nothing to merge
    mutate(b)  # and the result is a base the next overlay splices from
    compact_and_check(b)


def test_compact_from_an_edgeless_base():
    """A graph grown edge by edge: every row is an overlay row."""
    b = build_graph(RING_LABELS, RING_EDGES, storage="set").backend
    assert b.indices.size == 0
    compact_and_check(b)


def test_compact_after_attach_leaves_the_shared_arrays_alone():
    base = CSRBackend(RING_LABELS, RING_EDGES)
    indptr, indices = base.indptr.copy(), base.indices.copy()
    indptr.setflags(write=False)
    indices.setflags(write=False)  # what a shared-memory view looks like to a worker
    attached = CSRBackend.from_arrays(
        indptr, indices, base.label_ids, base.label_table, base.degree_array
    )
    _touch_adjacent(attached)
    _add_connected_vertices(attached)
    compact_and_check(attached)
