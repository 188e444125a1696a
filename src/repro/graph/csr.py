"""Storage for labeled graphs: the two views the engine reads.

:class:`CSRBackend` owns the topology and label storage of one labeled
graph; :class:`~repro.graph.labeled_graph.LabeledGraph` keeps its public API
and delegates every storage question here. It holds exactly what is read:

* **sorted neighbor tuples**, one per vertex — what index builds, the search
  order and every deterministic iteration walk;
* **membership sets**, one per vertex — what ``has_edge`` probes and the
  localized search of Section 5.1 intersects in C;
* degrees, the raw label list and the label interning tables.

:meth:`~CSRBackend.add_vertex`, :meth:`~CSRBackend.add_edge` and
:meth:`~CSRBackend.remove_edge` update those views in place, so a graph that
was built and a graph that was grown to the same edges are the same object
state. There is no second, array-shaped copy of the adjacency, resident or
on demand: the storage is plain Python objects holding no lock, so it
crosses a process boundary as it is — inherited by a forked worker, pickled
for a spawned one (:mod:`repro.parallel.pool`). The class keeps the name of
the compressed-sparse-row arrays it once held; it is a class because it
hides the view bookkeeping behind one set of accessors.

Accessor semantics:

* ``neighbors(v)`` returns the sorted tuple of neighbors (plain Python ints,
  so downstream embeddings never carry numpy scalar types);
* ``neighbor_set(v)`` returns the same vertices as the storage's own hash
  set, for C-level intersection (the localized search of Section 5.1);
* ``has_edge(u, v)`` is an O(1) expected probe through the per-vertex hash
  sets (a binary search in a sorted row pays ~20x call overhead for a
  single lookup);
* labels are interned into ``label_table`` / ``label_to_id`` in
  first-appearance order, the id space the per-graph index cache keys its
  signature bitmasks by; ``label_id_sequence()`` is the per-vertex id list.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.exceptions import GraphError

Label = Hashable
Edge = Tuple[int, int]


def check_edge(num_vertices: int, u: int, v: int) -> None:
    """The endpoint rule of a simple graph, for every way an edge arrives.

    ``u`` and ``v`` must be integers (``bool`` is not one: ``True`` would
    sit in a neighbor row and reach the wire as ``true``), inside
    ``[0, num_vertices)`` and distinct; anything else raises
    :class:`~repro.exceptions.GraphError`.
    """
    # Exact-type test first: bulk builds pass plain ints, and the general
    # isinstance pair below costs more than the rest of the check.
    if type(u) is not int or type(v) is not int:
        for e in (u, v):
            if isinstance(e, bool) or not isinstance(e, int):
                raise GraphError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        raise GraphError(f"edge ({u}, {v}) references a vertex outside [0, {num_vertices})")
    if u == v:
        raise GraphError(f"self-loop ({u}, {u}) not allowed in a simple graph")


def normalize_edges(num_vertices: int, edges: Iterable[Edge]) -> List[Edge]:
    """Validate and normalize an edge iterable to sorted unique ``(u, v)``, u < v.

    Every pair passes :func:`check_edge`; duplicate pairs (in either
    orientation) collapse.
    """
    seen: Set[Edge] = set()
    for u, v in edges:
        check_edge(num_vertices, u, v)
        seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


def check_label(label: Label) -> None:
    """Reject a label the interning tables cannot key."""
    try:
        hash(label)
    except TypeError:
        raise GraphError(f"vertex label {label!r} is not hashable") from None


def intern_labels(labels: Sequence[Label]) -> Tuple[List[Label], Dict[Label, int], List[int]]:
    """Intern a label table in first-appearance order.

    Returns ``(label_table, label_to_id, label_ids)`` with
    ``label_table[label_ids[v]] == labels[v]``. An unhashable label raises
    :class:`~repro.exceptions.GraphError`.
    """
    table: List[Label] = []
    to_id: Dict[Label, int] = {}
    ids: List[int] = []
    for lab in labels:
        try:
            i = to_id.get(lab)
        except TypeError:
            check_label(lab)  # raises the GraphError naming the label
            raise
        if i is None:
            i = to_id[lab] = len(table)
            table.append(lab)
        ids.append(i)
    return table, to_id, ids


def _sorted_rows(n: int, pairs: Sequence[Edge]) -> List[Tuple[int, ...]]:
    """Per-vertex sorted neighbor tuples from normalized edge pairs."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return [tuple(sorted(r)) for r in adj]


def _tuple_insert(row: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """Sorted-insert ``v`` into a sorted tuple."""
    i = bisect_left(row, v)
    return row[:i] + (v,) + row[i:]


def _tuple_remove(row: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """Remove ``v`` from a sorted tuple (caller guarantees membership)."""
    i = bisect_left(row, v)
    return row[:i] + row[i + 1 :]


class CSRBackend:
    """The storage of one labeled graph: sorted rows, membership sets, labels.

    Attributes
    ----------
    labels:
        The raw label list, indexed by vertex id.
    label_table, label_to_id:
        The interning tables (first-appearance order). Interning is
        append-only: a label id never changes once assigned, across
        mutations and compactions alike.
    num_edges:
        Undirected edge count.

    Mutations (:meth:`add_vertex` / :meth:`add_edge` / :meth:`remove_edge`)
    update the rows, sets and degrees in place; :attr:`delta_size` counts
    the edge ops applied since the last :meth:`compact`, which is all the
    bookkeeping a write leaves behind.
    """

    __slots__ = (
        "labels",
        "num_edges",
        "label_table",
        "label_to_id",
        "_n",
        "_rows",
        "_degrees",
        "_sets",
        "_label_id_list",
        "_delta_edges",
    )

    def __init__(self, labels: Sequence[Label], edges: Iterable[Edge] = ()) -> None:
        self.labels: List[Label] = list(labels)
        n = self._n = len(self.labels)
        pairs = normalize_edges(n, edges)
        self.num_edges = len(pairs)
        self.label_table, self.label_to_id, self._label_id_list = intern_labels(self.labels)
        rows = self._rows = _sorted_rows(n, pairs)
        self._degrees = [len(r) for r in rows]
        # Per-vertex membership sets for the scalar probe and the C-level
        # intersections of the localized search.
        self._sets: List[Set[int]] = [set(r) for r in rows]
        self._delta_edges = 0

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def delta_size(self) -> int:
        """Edge mutations applied since the last compaction (or build)."""
        return self._delta_edges

    def label(self, v: int) -> Label:
        return self.labels[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor tuple of ``v`` (plain Python ints)."""
        return self._rows[v]

    def neighbor_set(self, v: int) -> Set[int]:
        """The neighbors of ``v`` as the storage's own hash set (read-only).

        What ``has_edge`` probes, handed out whole so a caller can intersect
        it with another set in C — ``O(min)`` of the two sizes — instead of
        walking the row in the interpreter. Mutations update it in place.
        """
        return self._sets[v]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degree_sequence(self) -> List[int]:
        return list(self._degrees)

    def label_id_sequence(self) -> List[int]:
        """Per-vertex label ids (indexes into ``label_table``), as a new list."""
        return list(self._label_id_list)

    def has_edge(self, u: int, v: int) -> bool:
        """O(1) expected scalar probe (per-vertex hash set)."""
        return v in self._sets[u]

    def edges(self) -> Iterator[Edge]:
        """Every undirected edge exactly once as ``(u, v)``, u < v, sorted."""
        for u, row in enumerate(self._rows):
            for v in row:
                if v > u:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Append an isolated vertex with ``label``; returns its new id.

        Label interning stays append-only: an unseen label gets the next id,
        existing label ids are untouched (the invariant the signature
        bitmasks in :class:`~repro.indexes.graph_cache.GraphIndexCache`
        depend on). An unhashable label raises
        :class:`~repro.exceptions.GraphError` before anything is appended.
        """
        check_label(label)
        v = self._n
        self.labels.append(label)
        lid = self.label_to_id.get(label)
        if lid is None:
            lid = self.label_to_id[label] = len(self.label_table)
            self.label_table.append(label)
        self._label_id_list.append(lid)
        self._rows.append(())
        self._sets.append(set())
        self._degrees.append(0)
        self._n = v + 1
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``; returns False if already present."""
        check_edge(self._n, u, v)
        if v in self._sets[u]:
            return False
        self._rows[u] = _tuple_insert(self._rows[u], v)
        self._rows[v] = _tuple_insert(self._rows[v], u)
        self._sets[u].add(v)
        self._sets[v].add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self.num_edges += 1
        self._delta_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge ``(u, v)``; returns False if absent."""
        check_edge(self._n, u, v)
        if v not in self._sets[u]:
            return False
        self._rows[u] = _tuple_remove(self._rows[u], v)
        self._rows[v] = _tuple_remove(self._rows[v], u)
        self._sets[u].discard(v)
        self._sets[v].discard(u)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self.num_edges -= 1
        self._delta_edges += 1
        return True

    def compact(self) -> None:
        """Reset :attr:`delta_size`: the storage half of a checkpoint.

        Rows, sets and degrees are already the live graph — there is
        nothing to merge. What a compaction *means* (an empty mutation log,
        and with it a floor a lagging worker pool can fall below) lives in
        :meth:`LabeledGraph.compact() <repro.graph.labeled_graph.
        LabeledGraph.compact>`.
        """
        self._delta_edges = 0
