"""CSR storage for labeled graphs: frozen sorted arrays plus a mutation overlay.

:class:`CSRBackend` owns the topology and label storage of one labeled
graph; :class:`~repro.graph.labeled_graph.LabeledGraph` keeps its public API
and delegates every storage question here. It is a class because it hides a
format, in three parts:

* the **frozen base** — compressed sparse row: two numpy arrays
  (``indptr``/``indices``) with **sorted** neighbor rows, next to a flat
  label-id array and a precomputed degree array. Neighbor iteration is a
  contiguous slice, iteration order is deterministic by construction, and
  batch edge probes vectorize with ``searchsorted``;
* the **Python-level views** the join kernels actually iterate — per-vertex
  sorted neighbor tuples and membership sets;
* the **mutation overlay** — :meth:`~CSRBackend.add_vertex`,
  :meth:`~CSRBackend.add_edge` and :meth:`~CSRBackend.remove_edge` update
  the views in place and record the vertices whose rows diverge from the
  base, so the array accessors (``neighbors_array``/``has_edges``)
  transparently serve the overlay row instead of the stale slice.
  :meth:`~CSRBackend.compact` merges the overlay back into fresh sorted
  arrays, restoring the invariants the vectorized kernels and the
  shared-memory publisher rely on; :meth:`~CSRBackend.from_arrays` is the
  attach half of that publication.

Accessor semantics:

* ``neighbors(v)`` returns the sorted tuple of neighbors (plain Python ints,
  so downstream embeddings never carry numpy scalar types);
* ``neighbor_set(v)`` returns the same vertices as the storage's own hash
  set, for C-level intersection (the localized search of Section 5.1);
* ``has_edge(u, v)`` is an O(1) expected probe through the per-vertex hash
  sets, because a per-call ``searchsorted`` pays ~20x Python/numpy call
  overhead for a single lookup; the pure-array probes remain available as
  :meth:`CSRBackend.has_edge_searchsorted` (scalar, for verification) and
  :meth:`CSRBackend.has_edges` (vectorized batch, the form that actually
  amortizes the numpy call);
* labels are interned into ``label_table`` / ``label_to_id`` / ``label_ids``
  in first-appearance order, the id space the per-graph index cache keys its
  signature bitmasks by.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError

Label = Hashable
Edge = Tuple[int, int]


def normalize_edges(num_vertices: int, edges: Iterable[Edge]) -> List[Edge]:
    """Validate and normalize an edge iterable to sorted unique ``(u, v)``, u < v.

    Rejects self-loops and endpoints outside ``[0, num_vertices)``; duplicate
    pairs (in either orientation) collapse.
    """
    n = num_vertices
    seen: Set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside [0, {n})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) not allowed in a simple graph")
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


def _check_edge_endpoints(n: int, u: int, v: int) -> None:
    """Validate one edge-mutation pair with the same diagnostics as builds."""
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) references a vertex outside [0, {n})")
    if u == v:
        raise GraphError(f"self-loop ({u}, {u}) not allowed in a simple graph")


def _tuple_insert(row: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """Sorted-insert ``v`` into a sorted tuple."""
    i = bisect_left(row, v)
    return row[:i] + (v,) + row[i:]


def _tuple_remove(row: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """Remove ``v`` from a sorted tuple (caller guarantees membership)."""
    i = bisect_left(row, v)
    return row[:i] + row[i + 1 :]


class CSRBackend:
    """Compressed-sparse-row storage for one labeled graph.

    Attributes
    ----------
    indptr, indices:
        The CSR *base snapshot*: for any vertex ``v`` not in the mutation
        overlay, the neighbors of ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``, sorted ascending.
    label_ids, label_table, label_to_id:
        Flat per-vertex label-id array plus the interning tables
        (first-appearance order). Interning is append-only: a label id never
        changes once assigned, even across mutations and compactions.
    degree_array:
        Per-vertex degrees as a numpy array (rebuilt lazily after mutation).
    labels:
        The raw label list, indexed by vertex id.

    Mutations (:meth:`add_vertex` / :meth:`add_edge` / :meth:`remove_edge`)
    update the Python-level views in place and record the touched vertices in
    an overlay (:attr:`delta_size` counts pending edge ops); the numpy base
    stays frozen until :meth:`compact` merges the overlay back into fresh
    sorted arrays.
    """

    __slots__ = (
        "labels",
        "num_edges",
        "indptr",
        "indices",
        "label_table",
        "label_to_id",
        "_n",
        "_rows",
        "_degrees",
        "_sets",
        "_label_id_list",
        "_label_ids_np",
        "_degree_np",
        "_base_n",
        "_touched",
        "_delta_edges",
    )

    def __init__(self, labels: Sequence[Label], edges: Iterable[Edge] = ()) -> None:
        self.labels: List[Label] = list(labels)
        n = self._n = len(self.labels)
        pairs = normalize_edges(n, edges)
        self.num_edges = len(pairs)
        rows = self._rows = _sorted_rows(n, pairs)
        self._degrees = [len(r) for r in rows]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        self.indptr = indptr
        index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self.indices = np.fromiter(
            (v for row in rows for v in row), dtype=index_dtype, count=2 * len(pairs)
        )
        self._degree_np: Optional[np.ndarray] = np.asarray(self._degrees, dtype=np.int64)
        table, to_id, ids = intern_labels(self.labels)
        self.label_table = table
        self.label_to_id = to_id
        self._label_id_list: List[int] = ids
        self._label_ids_np: Optional[np.ndarray] = np.asarray(ids, dtype=np.int32)
        # Per-vertex membership sets for the scalar probe: searchsorted pays
        # ~20x Python/numpy call overhead per single lookup, and any packed
        # edge-key scheme pays the packing arithmetic per call.
        self._sets: List[Set[int]] = [set(r) for r in rows]
        self._base_n = n
        self._touched: Set[int] = set()
        self._delta_edges = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        label_ids: np.ndarray,
        label_table: Sequence[Label],
        degree_array: np.ndarray,
    ) -> "CSRBackend":
        """Rebuild a backend around existing CSR arrays without renormalizing.

        The attach half of the shared-memory round-trip (see
        :mod:`repro.graph.shared`): the arrays are adopted as-is — typically
        views over ``multiprocessing.shared_memory`` buffers, so the bulk
        topology is zero-copy — and only the Python-level iteration views
        (per-vertex neighbor tuples and membership sets) are rebuilt, one
        O(|V| + |E|) pass paid once per attaching process. The arrays must
        satisfy the constructor's invariants (sorted rows, u < v pairs each
        stored in both directions), which :func:`~repro.graph.shared.
        publish_graph` guarantees by construction.
        """
        backend = cls.__new__(cls)
        n = len(label_ids)
        backend._n = n
        backend.indptr = indptr
        backend.indices = indices
        backend._label_ids_np = label_ids
        backend._label_id_list = [int(i) for i in label_ids]
        backend.label_table = list(label_table)
        backend.label_to_id = {lab: i for i, lab in enumerate(backend.label_table)}
        backend.labels = [backend.label_table[i] for i in backend._label_id_list]
        backend._degree_np = degree_array
        backend.num_edges = len(indices) // 2
        bounds = [int(b) for b in indptr]
        flat = [int(v) for v in indices]
        rows = backend._rows = [
            tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(n)
        ]
        backend._degrees = [len(r) for r in rows]
        backend._sets = [set(r) for r in rows]
        backend._base_n = n
        backend._touched = set()
        backend._delta_edges = 0
        return backend

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def label_ids(self) -> np.ndarray:
        """Flat per-vertex label-id array (rebuilt lazily after add_vertex)."""
        if self._label_ids_np is None:
            self._label_ids_np = np.asarray(self._label_id_list, dtype=np.int32)
        return self._label_ids_np

    @property
    def degree_array(self) -> np.ndarray:
        """Per-vertex degrees as numpy (rebuilt lazily after mutation)."""
        if self._degree_np is None:
            self._degree_np = np.asarray(self._degrees, dtype=np.int64)
        return self._degree_np

    @property
    def delta_size(self) -> int:
        """Edge mutations applied since the last compaction (or build)."""
        return self._delta_edges

    @property
    def touched_vertices(self) -> Set[int]:
        """Vertices whose rows diverge from the CSR base snapshot."""
        return self._touched

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

    def neighbors_array(self, v: int) -> np.ndarray:
        """CSR row slice for vectorized consumers (zero-copy off the base).

        For vertices in the mutation overlay — rows that diverged from the
        base snapshot, or vertices added after it — the sorted overlay row is
        materialized instead, so vectorized consumers always see the live
        adjacency.
        """
        if v >= self._base_n or v in self._touched:
            return np.asarray(self._rows[v], dtype=self.indices.dtype)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degree_sequence(self) -> List[int]:
        return list(self._degrees)

    def has_edge(self, u: int, v: int) -> bool:
        """O(1) expected scalar probe (per-vertex hash set)."""
        return v in self._sets[u]

    def has_edge_searchsorted(self, u: int, v: int) -> bool:
        """The pure-CSR scalar probe (binary search in the sorted row)."""
        row = self.neighbors_array(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def has_edges(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Vectorized batch probe: which of ``targets`` are neighbors of ``u``.

        This is the ``searchsorted`` form that actually amortizes numpy call
        overhead — the building block for vectorized join filters.
        """
        row = self.neighbors_array(u)
        targets = np.asarray(targets)
        if row.size == 0:
            return np.zeros(targets.shape, dtype=bool)
        pos = np.searchsorted(row, targets)
        pos_clipped = np.minimum(pos, row.size - 1)
        return (pos < row.size) & (row[pos_clipped] == targets)

    def edges(self) -> Iterator[Edge]:
        """Every undirected edge exactly once as ``(u, v)``, u < v, sorted."""
        for u, row in enumerate(self._rows):
            for v in row:
                if v > u:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Mutation surface (delta overlay)
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
        self._label_ids_np = None
        self._rows.append(())
        self._sets.append(set())
        self._degrees.append(0)
        self._degree_np = None
        self._n = v + 1
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``; returns False if already present."""
        _check_edge_endpoints(self._n, u, v)
        if v in self._sets[u]:
            return False
        self._rows[u] = _tuple_insert(self._rows[u], v)
        self._rows[v] = _tuple_insert(self._rows[v], u)
        self._sets[u].add(v)
        self._sets[v].add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self.num_edges += 1
        self._after_edge_mutation(u, v)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge ``(u, v)``; returns False if absent."""
        _check_edge_endpoints(self._n, u, v)
        if v not in self._sets[u]:
            return False
        self._rows[u] = _tuple_remove(self._rows[u], v)
        self._rows[v] = _tuple_remove(self._rows[v], u)
        self._sets[u].discard(v)
        self._sets[v].discard(u)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self.num_edges -= 1
        self._after_edge_mutation(u, v)
        return True

    def _after_edge_mutation(self, u: int, v: int) -> None:
        self._degree_np = None
        self._delta_edges += 1
        base = self._base_n
        if u < base:
            self._touched.add(u)
        if v < base:
            self._touched.add(v)

    def compact(self) -> None:
        """Merge the mutation overlay into fresh sorted CSR arrays.

        The new ``indices`` is spliced from the old one: the rows of
        untouched vertices sit between the touched ones in unbroken runs
        whose contents did not change, so each run is one numpy slice copy
        and only the overlay rows (touched vertices, and vertices added after
        the base) are converted from the Python views. A compaction that
        changed twenty rows costs twenty small conversions and a memcpy of
        the rest, not a walk over every edge. ``indptr`` and the lazy
        ``label_ids``/``degree_array`` caches are rebuilt from the live
        views and the overlay is cleared, restoring the pure-CSR invariants
        that the shared-memory publisher requires. Attached (read-only,
        shared-buffer) arrays are replaced, never written in place.
        """
        n = self._n
        rows = self._rows
        base_n = self._base_n
        old_indptr, old_indices = self.indptr, self.indices
        index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        overlay = sorted(self._touched)
        overlay.extend(range(base_n, n))
        pieces: List[np.ndarray] = []
        run_start = 0  # first base vertex not yet copied
        i = 0
        while i < len(overlay):
            first = last = overlay[i]
            i += 1
            while i < len(overlay) and overlay[i] == last + 1:
                last = overlay[i]
                i += 1
            if first > run_start:
                pieces.append(old_indices[old_indptr[run_start] : old_indptr[first]])
            pieces.append(
                np.fromiter(chain.from_iterable(rows[first : last + 1]), dtype=index_dtype)
            )
            run_start = last + 1
        if run_start < base_n:
            pieces.append(old_indices[old_indptr[run_start] : old_indptr[base_n]])
        self.indices = (
            np.concatenate(pieces, dtype=index_dtype) if pieces else np.empty(0, dtype=index_dtype)
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        self.indptr = indptr
        self._degree_np = np.asarray(self._degrees, dtype=np.int64)
        self._label_ids_np = np.asarray(self._label_id_list, dtype=np.int32)
        self._base_n = n
        self._touched = set()
        self._delta_edges = 0
