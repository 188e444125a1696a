"""Unit tests for the one graph storage class (repro.graph.csr)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.csr import CSRBackend, intern_labels, normalize_edges
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.shared import attach_graph, publish_graph
from tests.conftest import (
    STORAGE_STATES,
    assert_arrays_match_rebuild,
    build_graph,
    resident_arrays,
)

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
    assert backend.label_id_sequence() == [0, 1, 1, 0, 2]
    assert backend.to_arrays()["label_ids"].tolist() == [0, 1, 1, 0, 2]


# ----------------------------------------------------------------------
# CSR is the publication format: to_arrays / from_arrays, nothing resident.
# The ids below are named after the array base this class used to keep;
# each docstring says what the behaviour became.
# ----------------------------------------------------------------------
def storage_state(b: CSRBackend):
    """Everything a ``CSRBackend`` holds except ``delta_size``."""
    n = b.num_vertices
    return (
        n,
        b.num_edges,
        list(b.labels),
        list(b.label_table),
        dict(b.label_to_id),
        b.label_id_sequence(),
        [b.neighbors(v) for v in range(n)],
        [set(b.neighbor_set(v)) for v in range(n)],
        b.degree_sequence(),
    )


def row_probe(arrays, u: int, targets) -> np.ndarray:
    """The array probe, as the reference: which ``targets`` sit in row ``u``
    of a ``to_arrays()`` result, by ``searchsorted`` over the sorted row."""
    row = arrays["indices"][arrays["indptr"][u] : arrays["indptr"][u + 1]]
    targets = np.asarray(targets)
    if row.size == 0:
        return np.zeros(targets.shape, dtype=bool)
    pos = np.searchsorted(row, targets)
    return (pos < row.size) & (row[np.minimum(pos, row.size - 1)] == targets)


def test_no_array_is_held_between_calls():
    b = CSRBackend(LABELS, EDGES)
    first, second = b.to_arrays(), b.to_arrays()
    for field in first:
        assert first[field] is not second[field]
    first["indices"][:] = 0  # the caller's copy; the storage never sees it
    assert_arrays_match_rebuild(b)
    assert not resident_arrays(b)


def test_storage_states_are_the_two_extremes():
    """Was: built = all rows in the arrays, grown = all rows in the overlay.
    Now the two routes are indistinguishable — same state, same arrays."""
    built = build_graph(LABELS, EDGES, storage="csr").backend
    grown = build_graph(LABELS, EDGES, storage="set").backend
    assert storage_state(grown) == storage_state(built)
    assert (built.delta_size, grown.delta_size) == (0, built.num_edges)
    want = assert_arrays_match_rebuild(built)
    got = assert_arrays_match_rebuild(grown)
    for field in want:
        assert got[field].dtype == want[field].dtype
        assert got[field].tolist() == want[field].tolist()


def test_csr_arrays_consistent():
    """The format ``to_arrays()`` writes: ``indptr`` the cumulative degrees
    (int64), ``indices`` the sorted rows end to end (int32), ``label_ids``
    indexing ``label_table`` (int32)."""
    b = CSRBackend(LABELS, EDGES)
    arrays = assert_arrays_match_rebuild(b)
    assert arrays["indptr"].tolist() == [0, 2, 5, 7, 9, 10]
    assert arrays["indices"].tolist() == [1, 2, 0, 2, 3, 0, 1, 1, 4, 3]
    assert [arrays[f].dtype for f in arrays] == [np.int64, np.int32, np.int32]
    assert [b.label_table[i] for i in arrays["label_ids"]] == LABELS


def test_csr_neighbors_array_zero_copy():
    """Was: ``neighbors_array(v)`` is a view of the array base. The view the
    engine reads without a copy is now ``neighbor_set(v)``: the storage's
    own object, following writes in place."""
    b = CSRBackend(LABELS, EDGES)
    row = b.neighbor_set(1)
    assert row is b.neighbor_set(1) and row == {0, 2, 3}
    b.add_edge(1, 4)
    b.remove_edge(1, 0)
    assert row is b.neighbor_set(1) and row == {2, 3, 4}
    assert b.neighbors(1) == (2, 3, 4)


def test_csr_scalar_probes_agree():
    """``has_edge`` against a binary search over the published rows."""
    b = build_graph(LABELS, EDGES, storage="set").backend
    b.remove_edge(0, 2)
    arrays = b.to_arrays()
    for u in range(5):
        for v in range(5):
            assert b.has_edge(u, v) == bool(row_probe(arrays, u, [v])[0])


def test_csr_has_edges_vectorized():
    """The batch probe survives as the reference, not as API."""
    b = CSRBackend(LABELS, EDGES)
    targets = np.array([0, 1, 2, 3, 4])
    got = row_probe(b.to_arrays(), 1, targets)
    assert list(got) == [True, False, True, True, False] == [b.has_edge(1, t) for t in targets]
    # Isolated row: all-false without error.
    iso = CSRBackend(["x", "y"], [])
    assert list(row_probe(iso.to_arrays(), 0, targets[:2])) == [False, False]
    assert not iso.has_edge(0, 1)


def test_empty_graph():
    b = CSRBackend([])
    assert b.num_vertices == 0 and b.num_edges == 0
    assert list(b.edges()) == []
    arrays = assert_arrays_match_rebuild(b)
    assert arrays["indptr"].tolist() == [0] and arrays["indices"].size == 0
    assert storage_state(CSRBackend.from_arrays(**arrays, label_table=[])) == storage_state(b)


# ----------------------------------------------------------------------
# Compaction moves no adjacency data: after any script the arrays a
# publication would write equal a rebuild's, before and after compact()
# ----------------------------------------------------------------------
RING = 8
RING_LABELS = list("abcdabcd")
RING_EDGES = [(v, (v + 1) % RING) for v in range(RING)] + [(0, 4), (2, 6)]


def compact_and_check(backend: CSRBackend) -> None:
    """``to_arrays()`` spells a from-scratch rebuild of the live graph,
    ``compact()`` changes nothing but ``delta_size``, and the arrays read
    back (``from_arrays``) to the same storage state."""
    before = storage_state(backend)
    arrays = assert_arrays_match_rebuild(backend)
    backend.compact()
    assert backend.delta_size == 0
    assert storage_state(backend) == before
    after = assert_arrays_match_rebuild(backend)
    assert all(after[field].tolist() == arrays[field].tolist() for field in arrays)
    attached = CSRBackend.from_arrays(**arrays, label_table=backend.label_table)
    assert storage_state(attached) == before and attached.delta_size == 0
    assert all(type(v) is int for u in range(attached.num_vertices) for v in attached.neighbors(u))


def _touch_first(b):
    b.add_edge(0, 2)


def _touch_last(b):
    b.remove_edge(RING - 1, 0)


def _touch_adjacent(b):
    b.add_edge(3, 5)
    b.add_edge(4, 6)  # 3, 4, 5, 6: four consecutive rows rewritten


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
    b.add_edge(2, 6)  # two deltas, rows back where they started


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
    """Was: compaction splices overlay rows into fresh arrays. Now: after
    the script ``to_arrays()`` ≡ a rebuild and ``compact()`` only resets
    ``delta_size`` — at every point of a write / compact / write sequence."""
    b = CSRBackend(RING_LABELS, RING_EDGES)
    mutate(b)
    compact_and_check(b)
    compact_and_check(b)  # twice in a row: idempotent
    mutate(b)  # and writes after a checkpoint behave like writes before it
    compact_and_check(b)


def test_compact_from_an_edgeless_base():
    """A graph grown edge by edge publishes and checkpoints like a built one."""
    b = build_graph(RING_LABELS, RING_EDGES, storage="set").backend
    assert b.delta_size == len(RING_EDGES)
    compact_and_check(b)
    assert storage_state(b) == storage_state(CSRBackend(RING_LABELS, RING_EDGES))


def test_compact_after_attach_leaves_the_shared_arrays_alone():
    """Mutating and compacting an attached graph touches only that copy: a
    second attach of the same descriptor still reads the published graph."""
    source = LabeledGraph(RING_LABELS, RING_EDGES)
    want = storage_state(source.backend)
    with publish_graph(source) as published:
        first = attach_graph(published.descriptor)
        _touch_adjacent(first.backend)
        _add_connected_vertices(first.backend)
        compact_and_check(first.backend)
        assert storage_state(first.backend) != want
        second = attach_graph(published.descriptor)
        assert storage_state(second.backend) == want == storage_state(source.backend)
