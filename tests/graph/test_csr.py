"""Unit tests for the storage a ``LabeledGraph`` holds: sorted rows,
membership sets, degrees, label tables.

The file and many ids are named after the storage class
(``repro.graph.csr``) that held these until it was folded into the graph;
each pins what the behaviour became, on the graph itself."""

from __future__ import annotations

import copy
import pickle
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.builder as builder_module
import repro.graph.labeled_graph as graph_module
from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import worker_graph
from tests.conftest import (
    STORAGE_STATES,
    assert_arrays_match_rebuild,
    build_graph,
    counting,
    normalize_edges,
    resident_arrays,
)

LABELS = ["a", "b", "b", "a", "c"]
EDGES = [(0, 1), (1, 2), (2, 0), (3, 1), (1, 0), (4, 3)]  # (1, 0) duplicates (0, 1)


@pytest.fixture(params=STORAGE_STATES)
def graph(request):
    return build_graph(LABELS, EDGES, storage=request.param)


# ----------------------------------------------------------------------
# The constructor against its reference. ``normalize_edges`` (validated,
# sorted, unique pairs — the pass the constructor used to run before
# building rows) lives on in ``tests/conftest.py`` as that reference.
# ----------------------------------------------------------------------
def test_normalize_edges_dedups_and_sorts():
    assert normalize_edges(5, EDGES) == [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]


def test_normalize_edges_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"outside \[0, 3\)"):
        normalize_edges(3, [(0, 3)])


def test_normalize_edges_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        normalize_edges(3, [(1, 1)])


@st.composite
def messy_edge_lists(draw):
    """``(n, edges)``: random pairs over ``n`` vertices, some repeated, some
    repeated the other way round, shuffled."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=40))
    edges += [draw(st.sampled_from(edges)) for _ in range(draw(st.integers(0, 5)) if edges else 0)]
    edges += [
        draw(st.sampled_from(edges))[::-1] for _ in range(draw(st.integers(0, 5)) if edges else 0)
    ]
    return n, draw(st.permutations(edges))


@settings(max_examples=150, deadline=None)
@given(messy_edge_lists())
def test_one_pass_build_equals_the_normalized_reference(instance):
    """Duplicates, both orientations and any order give the storage a build
    from ``sorted(set(normalized))`` gives — rows, sets, degrees, ``num_edges``."""
    n, edges = instance
    labels = [f"L{v % 3}" for v in range(n)]
    reference = normalize_edges(n, edges)
    built = LabeledGraph(labels, edges)
    assert storage_state(built) == storage_state(LabeledGraph(labels, reference))
    assert list(built.edges()) == reference and built.num_edges == len(reference)
    assert built.version is None  # a build is no write
    assert_arrays_match_rebuild(built)


@pytest.mark.parametrize("bad", [(0, 1, 2), (0,), 5], ids=repr)
def test_an_edge_entry_that_is_not_a_pair_is_a_graph_error(bad):
    """Was (defect seventeen): ``ValueError`` / ``TypeError`` straight out of
    the unpacking ``for u, v in edges``."""
    with pytest.raises(GraphError, match=r"edges must be \(u, v\) pairs"):
        LabeledGraph(["a", "b", "c"], [(0, 1), bad])


def test_the_constructor_checks_each_edge_once(monkeypatch):
    """One validated pass: ``check_edge`` runs once per pair handed in —
    duplicates included — and never again for the same build."""
    checks = counting(monkeypatch, graph_module, "check_edge")
    LabeledGraph(LABELS, EDGES)
    assert len(checks) == len(EDGES)
    builder = GraphBuilder()
    builder.add_vertices(LABELS)
    builder.add_edges(EDGES)
    del checks[:]
    builder.build()  # the constructor's pass over the builder's distinct edges
    assert len(checks) == builder.num_edges == 5


def test_builder_sorts_no_edge_collection(monkeypatch):
    """``GraphBuilder.build`` hands its edge set over as it is: the only
    ``sorted`` calls of a build are the constructor's, one per vertex row,
    each over that vertex's membership dict."""
    builder = GraphBuilder()
    builder.add_vertices(LABELS)
    builder.add_edges(EDGES)
    in_builder = counting(monkeypatch, builder_module, "sorted")
    in_constructor = counting(monkeypatch, graph_module, "sorted")
    built = builder.build()
    assert in_builder == []
    assert len(in_constructor) == len(LABELS)
    assert [args[0] for args in in_constructor] == [dict.fromkeys(row) for row in built._rows]
    assert all(type(args[0]) is dict for args in in_constructor)
    assert storage_state(built) == storage_state(LabeledGraph(LABELS, EDGES))


def test_intern_labels_first_appearance_order():
    g = LabeledGraph(LABELS)
    assert g.label_table == ["a", "b", "c"]
    assert g.label_to_id == {"a": 0, "b": 1, "c": 2}
    assert g.label_id_sequence() == [0, 1, 1, 0, 2]


def test_unhashable_label_is_a_graph_error():
    with pytest.raises(GraphError, match="not hashable"):
        LabeledGraph(["a", ["b"]])
    b = LabeledGraph(LABELS, EDGES)
    with pytest.raises(GraphError, match="not hashable"):
        b.add_vertex(["x"])
    assert b.num_vertices == 5 and b.labels == LABELS  # nothing appended


# ----------------------------------------------------------------------
# Semantics shared by both storage states
# ----------------------------------------------------------------------
def test_basic_accessors(graph):
    assert graph.num_vertices == 5
    assert graph.num_edges == 5
    assert graph.label(2) == "b"
    assert graph.degree(1) == 3
    assert graph.degree_sequence() == [2, 3, 2, 2, 1]


def test_neighbors_sorted_plain_ints(graph):
    nbrs = graph.neighbors(1)
    assert nbrs == (0, 2, 3)
    assert all(type(v) is int for v in nbrs)


def test_edges_sorted_once_each(graph):
    assert list(graph.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]


def test_has_edge_symmetric(graph):
    assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
    assert not graph.has_edge(0, 4)
    assert not graph.has_edge(0, 3)


def test_label_interning(graph):
    assert graph.label_table == ["a", "b", "c"]
    assert graph.label_to_id == {"a": 0, "b": 1, "c": 2}
    assert graph.label_id_sequence() == [0, 1, 1, 0, 2]


# ----------------------------------------------------------------------
# The storage is rows and sets of plain ints, nothing array-shaped, and it
# crosses a process boundary as it is (pickled for a spawned worker). The
# ids below are named after the array base and the CSR publication format
# the storage used to keep; each docstring says what the behaviour became.
# ----------------------------------------------------------------------
def storage_state(b: LabeledGraph):
    """Everything a graph holds, read off its own slots — except the
    pinned cache and the display name."""
    return (
        len(b.labels),
        b.num_edges,
        list(b.labels),
        list(b.label_table),
        dict(b.label_to_id),
        list(b._label_ids),
        list(b._rows),
        [set(s) for s in b._sets],
        list(b._degrees),
    )


def pickled(b: LabeledGraph) -> LabeledGraph:
    """``b`` the way a spawned worker receives it."""
    return pickle.loads(pickle.dumps(b))


def row_probe(b: LabeledGraph, u: int, targets):
    """The sorted-row probe, as the reference: which ``targets`` sit in row
    ``u``, by binary search over ``neighbors(u)``."""
    row = b.neighbors(u)
    found = []
    for t in targets:
        i = bisect_left(row, t)
        found.append(i < len(row) and row[i] == t)
    return found


def test_no_array_is_held_between_calls():
    """No array at all now, between calls or during one: every slot is a
    plain container, a handed-out row is an immutable tuple the caller
    cannot write through, and writes leave it that way."""
    b = LabeledGraph(LABELS, EDGES)
    assert not resident_arrays(b)
    row = b.neighbors(1)
    assert type(row) is tuple
    b.add_edge(1, 4)
    b.add_vertex("z")
    assert row == (0, 2, 3) and b.neighbors(1) == (0, 2, 3, 4)
    assert_arrays_match_rebuild(b)
    assert not resident_arrays(b) and not resident_arrays(pickled(b))


def test_a_shallow_copy_shares_the_storage_and_nothing_else():
    """What ``worker_graph`` relies on: ``copy.copy`` of a graph is the same
    storage state through the same row, set and label lists."""
    source = LabeledGraph(LABELS, EDGES, name="src")
    twin = copy.copy(source)
    assert storage_state(twin) == storage_state(source) and twin.name == "src"
    assert twin._rows is source._rows and twin._sets is source._sets
    assert twin.labels is source.labels and twin.label_to_id is source.label_to_id
    served = worker_graph(source)
    assert served._rows is source._rows and served.index_cache() is not source.index_cache()
    assert served.version == source.version


def test_storage_states_are_the_two_extremes():
    """Was: built = all rows in the arrays, grown = all rows in the overlay.
    Now the two routes are indistinguishable — same state, same rows."""
    built = build_graph(LABELS, EDGES, storage="csr")
    grown = build_graph(LABELS, EDGES, storage="set")
    assert storage_state(grown) == storage_state(built)
    # The writes that grew one leave no record: both caches start at seq 0.
    assert built.index_cache().version[1] == grown.index_cache().version[1] == 0
    assert assert_arrays_match_rebuild(grown) == assert_arrays_match_rebuild(built)


def test_csr_arrays_consistent():
    """Was: the format ``to_arrays()`` wrote. What that format spelled is
    read off the storage itself: the sorted rows end to end, the degrees
    their lengths, the label ids indexing ``label_table`` — and a pickled
    graph holds the same, in plain ints."""
    b = LabeledGraph(LABELS, EDGES)
    rows = assert_arrays_match_rebuild(b)
    assert [w for row in rows for w in row] == [1, 2, 0, 2, 3, 0, 1, 1, 4, 3]
    assert b.degree_sequence() == [2, 3, 2, 2, 1]
    assert [b.label_table[i] for i in b.label_id_sequence()] == LABELS
    twin = pickled(b)
    assert storage_state(twin) == storage_state(b) and twin.version == b.version
    assert_arrays_match_rebuild(twin)
    assert all(type(w) is int for v in range(5) for w in twin.neighbor_set(v))


def test_csr_neighbors_array_zero_copy():
    """Was: ``neighbors_array(v)`` is a view of the array base. The view the
    engine reads without a copy is now ``neighbor_set(v)``: a key view of
    the storage's own membership dict, so a view held across writes sees
    them — no copy was made."""
    b = LabeledGraph(LABELS, EDGES)
    row = b.neighbor_set(1)
    assert type(row) is type({}.keys()) and row == {0, 2, 3}
    b.add_edge(1, 4)
    b.remove_edge(1, 0)
    assert row == b.neighbor_set(1) == {2, 3, 4}
    assert b.neighbors(1) == (2, 3, 4)


def test_csr_scalar_probes_agree():
    """``has_edge`` against a binary search over the sorted rows."""
    b = build_graph(LABELS, EDGES, storage="set")
    b.remove_edge(0, 2)
    for u in range(5):
        for v in range(5):
            assert b.has_edge(u, v) == row_probe(b, u, [v])[0]


def test_csr_has_edges_vectorized():
    """The batch probe survives as the reference, not as API."""
    b = LabeledGraph(LABELS, EDGES)
    targets = [0, 1, 2, 3, 4]
    got = row_probe(b, 1, targets)
    assert got == [True, False, True, True, False] == [b.has_edge(1, t) for t in targets]
    # Isolated row: all-false without error.
    iso = LabeledGraph(["x", "y"], [])
    assert row_probe(iso, 0, targets[:2]) == [False, False]
    assert not iso.has_edge(0, 1)


def test_empty_graph():
    b = LabeledGraph([])
    assert b.num_vertices == 0 and b.num_edges == 0
    assert list(b.edges()) == []
    assert assert_arrays_match_rebuild(b) == []
    assert storage_state(pickled(b)) == storage_state(b)


# ----------------------------------------------------------------------
# Writes splice rows in place: after any script the storage equals a
# rebuild's (the ids are named after the compaction step that once did it)
# ----------------------------------------------------------------------
RING = 8
RING_LABELS = list("abcdabcd")
RING_EDGES = [(v, (v + 1) % RING) for v in range(RING)] + [(0, 4), (2, 6)]


def check_against_rebuild(graph: LabeledGraph) -> None:
    """The live storage is a from-scratch rebuild of its graph, and a
    pickled copy — what a spawned worker starts with — is in the same
    storage state at the same version."""
    before = storage_state(graph)
    assert_arrays_match_rebuild(graph)
    copied = pickled(graph)
    assert storage_state(copied) == before and copied.version == graph.version
    assert_arrays_match_rebuild(copied)


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
    """Was: compaction splices overlay rows into fresh arrays. Now every
    write splices its rows in place: the storage ≡ a rebuild after the
    script, after a check that reads it twice, and after the script again."""
    b = LabeledGraph(RING_LABELS, RING_EDGES)
    b.index_cache()
    mutate(b)
    check_against_rebuild(b)
    check_against_rebuild(b)  # twice in a row: a check is a read
    mutate(b)  # and a second run of the script behaves like the first
    check_against_rebuild(b)


def test_compact_from_an_edgeless_base():
    """A graph grown edge by edge pickles like a built one."""
    b = build_graph(RING_LABELS, RING_EDGES, storage="set")
    assert b.num_edges == len(RING_EDGES)
    check_against_rebuild(b)
    assert storage_state(b) == storage_state(LabeledGraph(RING_LABELS, RING_EDGES))


def test_compact_after_attach_leaves_the_shared_arrays_alone():
    """There are no shared arrays: a spawned worker's graph (pickle, then
    ``worker_graph``) is a copy of its own. Mutating it touches only that
    copy — the source, and a second worker's copy made afterwards, still
    hold the graph as it was."""
    source = LabeledGraph(RING_LABELS, RING_EDGES)
    source.index_cache()
    want = storage_state(source)
    first = worker_graph(pickle.loads(pickle.dumps(source)))
    assert first.version == source.version
    _touch_adjacent(first)
    _add_connected_vertices(first)
    check_against_rebuild(first)
    assert storage_state(first) != want
    second = worker_graph(pickle.loads(pickle.dumps(source)))
    assert storage_state(second) == want == storage_state(source)
