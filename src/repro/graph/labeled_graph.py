"""Undirected, vertex-labeled data graphs.

This module provides :class:`LabeledGraph`, the data-graph substrate of the
paper (Section 2): ``G = (V, E, Sigma, L)`` with

* ``V`` — vertices identified by dense integer ids ``0 .. n-1``;
* ``E`` — undirected simple edges (no self-loops, no multi-edges);
* ``Sigma`` — a set of hashable vertex labels;
* ``L`` — a total labeling function ``V -> Sigma``.

A graph is one object holding exactly what is read:

* **sorted neighbor tuples**, one per vertex — what index builds, the search
  order and every deterministic iteration walk (``neighbors(v)``: plain
  Python ints, so downstream embeddings never carry numpy scalar types);
* **membership sets**, one per vertex — what ``has_edge`` probes (O(1)
  expected; a binary search in a sorted row pays ~20x call overhead for a
  single lookup) and the localized search of Section 5.1 intersects in C
  (``neighbor_set(v)``);
* degrees, the raw label list and the label interning tables
  (``label_table`` / ``label_to_id``, first-appearance order: the id space
  the per-graph index cache keys its signature bitmasks by;
  ``label_id_sequence()`` is the per-vertex id list).

There is no second, array-shaped copy of the adjacency, resident or on
demand: the storage is plain Python objects holding no lock, so it crosses a
process boundary as it is — inherited by a forked worker, pickled for a
spawned one (:mod:`repro.parallel.pool`).

Per-graph derived state (label inverted index, neighborhood signatures,
candidate pools) lives in a :class:`~repro.indexes.graph_cache.
GraphIndexCache` pinned to the graph via :meth:`LabeledGraph.index_cache`
and shared by all queries against it.

Graphs support **live mutation**: :meth:`LabeledGraph.add_vertex`,
:meth:`~LabeledGraph.add_edge`, :meth:`~LabeledGraph.remove_edge`, and the
batched :meth:`~LabeledGraph.mutate` update the rows, sets and degrees in
place — so a graph that was built and a graph that was grown to the same
edges are the same object state — and repair the pinned index cache
incrementally (only state derived from the touched 1-hop neighborhoods is
recomputed; see ``docs/mutation.md`` for the full contract).
:meth:`~LabeledGraph.compact` is the logical checkpoint of that write stream
— it empties the mutation log and nothing else — taken once
:data:`DEFAULT_COMPACTION_THRESHOLD` edge deltas have accumulated; it moves
no adjacency data.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import GraphError

Label = Hashable
Edge = Tuple[int, int]

DEFAULT_COMPACTION_THRESHOLD = 4096
"""Edge deltas applied before :meth:`LabeledGraph.mutate` auto-compacts.
Compaction bounds the mutation log the writer keeps and pool workers replay;
its only price is a rebuild of the worker pools built before the writes it
drops. Explicit :meth:`LabeledGraph.compact` is always available."""


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


def check_label(label: Label) -> None:
    """Reject a label the interning tables cannot key."""
    try:
        hash(label)
    except TypeError:
        raise GraphError(f"vertex label {label!r} is not hashable") from None


class MutationSummary(NamedTuple):
    """Outcome of a batched :meth:`LabeledGraph.mutate` call."""

    applied: int
    """Mutations that changed the graph (duplicate adds/absent removes skip)."""

    compacted: bool
    """Whether the batch tripped the compaction threshold."""

    version: Optional[Tuple[int, int]]
    """The index cache's ``(epoch, delta_seq)`` after the batch (``None``
    when no cache has been built yet)."""


class LabeledGraph:
    """An undirected, vertex-labeled simple graph.

    Parameters
    ----------
    labels:
        Sequence assigning a label to every vertex; ``labels[v]`` is ``L(v)``.
        The vertex count is ``len(labels)``.
    edges:
        Iterable of ``(u, v)`` pairs. Order within a pair and duplicate pairs
        are normalized away; self-loops are rejected.
    name:
        Optional display name, propagated through derived graphs.

    Examples
    --------
    >>> g = LabeledGraph(["a", "b", "b"], [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.neighbors(1)
    (0, 2)
    >>> g.label(0)
    'a'

    Attributes
    ----------
    labels:
        The raw label list, indexed by vertex id (read-only by convention).
    label_table, label_to_id:
        The interning tables (first-appearance order). Interning is
        append-only: a label id never changes once assigned, across
        mutations and compactions alike.
    num_edges:
        Undirected edge count ``|E|``.
    """

    __slots__ = (
        "labels",
        "label_table",
        "label_to_id",
        "num_edges",
        "_label_ids",
        "_rows",
        "_sets",
        "_degrees",
        "_delta_edges",
        "_cache",
        "name",
    )

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Edge] = (),
        name: str = "",
    ) -> None:
        self.labels: List[Label] = list(labels)
        try:
            self.label_table: List[Label] = list(dict.fromkeys(self.labels))
        except TypeError:
            for label in self.labels:
                check_label(label)  # raises the GraphError naming the label
            raise
        to_id = self.label_to_id = {label: i for i, label in enumerate(self.label_table)}
        self._label_ids: List[int] = [to_id[label] for label in self.labels]
        # One pass over the edges: each pair is checked as it lands in the
        # two membership sets, where duplicates in either orientation
        # collapse; the sorted rows are read off the sets.
        n = len(self.labels)
        sets: List[Set[int]] = [set() for _ in range(n)]
        try:
            for u, v in edges:
                check_edge(n, u, v)
                sets[u].add(v)
                sets[v].add(u)
        except (TypeError, ValueError) as exc:  # an entry that does not unpack
            raise GraphError(f"edges must be (u, v) pairs: {exc}") from None
        self._sets = sets
        self._rows: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in sets]
        self._degrees: List[int] = [len(row) for row in self._rows]
        self.num_edges = sum(self._degrees) // 2
        self._delta_edges = 0
        self._cache = None
        self.name = name

    def index_cache(self):
        """The per-graph :class:`~repro.indexes.graph_cache.GraphIndexCache`.

        Built on first use and pinned, so every query, session, and baseline
        touching this graph shares one label index, signature table and
        candidate-pool memo.
        """
        if self._cache is None:
            from repro.indexes.graph_cache import GraphIndexCache

            self._cache = GraphIndexCache(self)
        return self._cache

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------
    @property
    def version(self) -> Optional[Tuple[int, int]]:
        """The pinned cache's ``(epoch, delta_seq)``, or ``None`` pre-build.

        This is the logical version stamped onto session memo entries, plan
        keys, and the sync header of every worker-pool chunk. The epoch is
        fixed for the cache's life and an applied delta bumps ``delta_seq``,
        so the pair changes exactly when the graph does.
        """
        if self._cache is None:
            return None
        return self._cache.version

    def add_vertex(self, label: Label) -> int:
        """Append an isolated vertex with ``label``; returns its new id.

        An unhashable label raises :class:`~repro.exceptions.GraphError`
        before anything is appended. The pinned index cache (if built) is
        repaired in place: the label index gains the vertex, its (empty)
        signature is registered, memoized pools over its label gain it where
        it qualifies, and plans over its label are evicted.
        """
        check_label(label)
        v = self._append_vertex(label)
        if self._cache is not None:
            self._cache.apply_delta((("add_vertex", v, label),))
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``; returns ``False`` if present.

        Self-loops and out-of-range endpoints raise
        :class:`~repro.exceptions.GraphError`. On success the pinned index
        cache is delta-repaired for the two endpoints only.
        """
        check_edge(len(self.labels), u, v)
        applied = self._write_edge(u, v, True)
        if applied and self._cache is not None:
            self._cache.apply_delta((("add_edge", u, v),))
        return applied

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge ``(u, v)``; returns ``False`` if absent."""
        check_edge(len(self.labels), u, v)
        applied = self._write_edge(u, v, False)
        if applied and self._cache is not None:
            self._cache.apply_delta((("remove_edge", u, v),))
        return applied

    # The two writers behind every door above and below. Neither validates:
    # the caller has, once.
    def _append_vertex(self, label: Label) -> int:
        """Append an isolated vertex; returns its id. Label interning stays
        append-only: an unseen label gets the next id, existing ids are
        untouched (the invariant the signature bitmasks in
        :class:`~repro.indexes.graph_cache.GraphIndexCache` depend on)."""
        v = len(self.labels)
        self.labels.append(label)
        lid = self.label_to_id.get(label)
        if lid is None:
            lid = self.label_to_id[label] = len(self.label_table)
            self.label_table.append(label)
        self._label_ids.append(lid)
        self._rows.append(())
        self._sets.append(set())
        self._degrees.append(0)
        return v

    def _write_edge(self, u: int, v: int, present: bool) -> bool:
        """Make edge ``(u, v)`` present or absent in both rows, both sets and
        both degrees; returns ``False`` (and counts no delta) if it already was."""
        sets = self._sets
        if (v in sets[u]) == present:
            return False
        rows, degrees = self._rows, self._degrees
        for a, b in ((u, v), (v, u)):
            row = rows[a]
            i = bisect_left(row, b)
            if present:
                rows[a] = row[:i] + (b,) + row[i:]
                sets[a].add(b)
                degrees[a] += 1
            else:
                rows[a] = row[:i] + row[i + 1 :]
                sets[a].discard(b)
                degrees[a] -= 1
        self.num_edges += 1 if present else -1
        self._delta_edges += 1
        return True

    def mutate(
        self,
        ops: Iterable[Tuple],
        compaction_threshold: Optional[int] = DEFAULT_COMPACTION_THRESHOLD,
    ) -> MutationSummary:
        """Apply a batch of mutation ops with one cache-repair pass.

        ``ops`` are tuples: ``("add_vertex", label)``, ``("add_edge", u, v)``
        or ``("remove_edge", u, v)``. The whole batch is validated before
        any op is applied, so a :class:`~repro.exceptions.GraphError`
        (malformed op, unhashable label, non-integer or out-of-range
        endpoint, self-loop, ``compaction_threshold`` not an integer >= 1)
        leaves the graph untouched. Valid ops apply in order; no-ops
        (duplicate adds, absent removes) are skipped without consuming a
        delta. After the batch, if at least ``compaction_threshold`` edge
        deltas have accumulated since the last compaction (``None``
        disables), the graph :meth:`compact`\\ s.
        """
        if compaction_threshold is not None and (
            type(compaction_threshold) is not int or compaction_threshold < 1
        ):
            # The wire's rule (schemas: an integer, minimum=1): 0 would compact
            # on every call, an empty batch included; ``True`` is not a count.
            raise GraphError(
                f"compaction_threshold must be an integer >= 1 or None, "
                f"got {compaction_threshold!r}"
            )
        batch = [tuple(op) for op in ops]
        # Validation pass: nothing below may raise once ops start applying,
        # or the pinned cache would diverge from a half-mutated graph.
        # Endpoint bounds account for vertices added earlier in this batch.
        n = len(self.labels)
        for op in batch:
            kind = op[0] if op else None
            if kind == "add_vertex":
                if len(op) != 2:
                    raise GraphError(f"malformed add_vertex op {op!r}")
                check_label(op[1])
                n += 1
            elif kind in ("add_edge", "remove_edge"):
                if len(op) != 3:
                    raise GraphError(f"malformed {kind} op {op!r}")
                check_edge(n, op[1], op[2])
            else:
                raise GraphError(f"unknown mutation op kind {kind!r}")
        applied: List[Tuple] = []
        for op in batch:
            kind = op[0]
            if kind == "add_vertex":
                applied.append(("add_vertex", self._append_vertex(op[1]), op[1]))
            elif self._write_edge(op[1], op[2], kind == "add_edge"):
                applied.append(op)
        if applied and self._cache is not None:
            self._cache.apply_delta(applied)
        compacted = False
        if compaction_threshold is not None and self._delta_edges >= compaction_threshold:
            self.compact()
            compacted = True
        return MutationSummary(len(applied), compacted, self.version)

    @property
    def delta_size(self) -> int:
        """Edge mutations applied since the last :meth:`compact` (or the
        build) — all the bookkeeping a write leaves behind."""
        return self._delta_edges

    def compact(self) -> None:
        """Checkpoint the write stream: empty the mutation log.

        Topology, every answer, :attr:`version`, compiled plans and session
        memos are unchanged, and no adjacency data moves: rows, sets and
        degrees are already the live graph, so there is nothing to merge.
        :attr:`delta_size` restarts and the log is dropped, which bounds the
        tail pool workers replay; a worker pool built before a write the log
        no longer holds is stale (:class:`~repro.exceptions.StaleSegmentError`,
        not a guess at ops it cannot fetch), one built after the last is not.
        """
        self._delta_edges = 0
        if self._cache is not None:
            self._cache.truncate_log()

    def replay(self, entries: Iterable[Tuple[int, Tuple]]) -> None:
        """Re-apply a mutation-log tail (``(seq, op)`` pairs) to this graph.

        The worker catch-up path: a pool worker's graph replays the
        parent's ops so its views and cache version converge on the
        parent's. Ops must be contiguous, start right after this graph's
        current ``delta_seq``, and re-apply cleanly; any skew raises
        :class:`~repro.exceptions.GraphError`. The ops are written in order
        — each checked first: they come from another process — and the
        cache is repaired once for the whole tail, also when an op raises,
        so cache and storage then agree on exactly the ops before it.
        """
        cache = self.index_cache()
        applied: List[Tuple] = []
        try:
            for seq, op in entries:
                have = cache.delta_seq + len(applied)
                if seq != have + 1:
                    raise GraphError(
                        f"mutation replay gap: have delta_seq {have}, next op is {seq}"
                    )
                kind = op[0]
                if kind == "add_vertex":
                    if op[1] != len(self.labels):
                        raise GraphError(
                            f"replay skew: add_vertex would produce id "
                            f"{len(self.labels)}, log says {op[1]}"
                        )
                    check_label(op[2])
                    self._append_vertex(op[2])
                elif kind in ("add_edge", "remove_edge"):
                    check_edge(len(self.labels), op[1], op[2])
                    if not self._write_edge(op[1], op[2], kind == "add_edge"):
                        state = "present" if kind == "add_edge" else "absent"
                        raise GraphError(f"replay skew: edge {op[1:]} already {state}")
                else:
                    raise GraphError(f"unknown mutation op kind {kind!r}")
                applied.append(op)
        finally:
            if applied:
                cache.apply_delta(applied)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self.labels)

    def vertices(self) -> range:
        """All vertex ids, as a ``range`` (cheap, re-iterable)."""
        return range(len(self.labels))

    def edges(self) -> Iterator[Edge]:
        """Yield every undirected edge exactly once, as ``(u, v)`` with u < v.

        Deterministic: edges come out sorted lexicographically.
        """
        for u, row in enumerate(self._rows):
            for v in row:
                if v > u:
                    yield (u, v)

    def label(self, v: int) -> Label:
        """``L(v)``."""
        return self.labels[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor tuple of ``v`` (plain Python ints)."""
        return self._rows[v]

    def neighbor_set(self, v: int) -> Set[int]:
        """The neighbors of ``v`` as the graph's own hash set (read-only).

        What ``has_edge`` probes, handed out whole so a caller can intersect
        it with another set in C — ``O(min)`` of the two sizes — instead of
        walking the row in the interpreter. Mutations update it in place.
        """
        return self._sets[v]

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        return self._degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        """O(1) expected scalar probe (per-vertex hash set)."""
        return v in self._sets[u]

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{tag} |V|={self.num_vertices} |E|={self.num_edges}"
            f" |Sigma|={len(self.label_set())}>"
        )

    # ------------------------------------------------------------------
    # Label machinery
    # ------------------------------------------------------------------
    def label_set(self) -> Set[Label]:
        """The set of distinct labels ``Sigma`` actually used."""
        return set(self.label_table)

    def label_index(self) -> Dict[Label, Tuple[int, ...]]:
        """Inverted index ``label -> sorted tuple of vertices with that label``.

        Served from the shared :meth:`index_cache`; this is the pre-computed
        index the paper requires "for looking up the set of vertices with a
        given label" (Section 4).
        """
        return self.index_cache().label_index

    def vertices_with_label(self, label: Label) -> Tuple[int, ...]:
        """All vertices carrying ``label`` (empty tuple if unused)."""
        return self.index_cache().vertices_with_label(label)

    # ------------------------------------------------------------------
    # Neighborhood signatures (Section 4.2)
    # ------------------------------------------------------------------
    def neighborhood_signature(self, v: int) -> FrozenSet[Label]:
        """``NS(v)``: the set of labels appearing among the neighbors of ``v``.

        Used by the neighborhood-signature filter: a data vertex ``v`` can
        match query node ``u`` only if ``NS_Q(u) <= NS(v)``. Signatures for
        the whole graph live in the shared :meth:`index_cache` as interned
        frozensets keyed by label-id bitmask (O(|V| + |E|) storage, matching
        the paper's stated index budget).
        """
        return self.index_cache().signature(v)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """Average vertex degree ``2|E| / |V|`` (0.0 for the empty graph)."""
        n = len(self.labels)
        if not n:
            return 0.0
        return 2.0 * self.num_edges / n

    def degree_sequence(self) -> List[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return list(self._degrees)

    def label_id_sequence(self) -> List[int]:
        """Per-vertex label ids (indexes into ``label_table``), as a new list."""
        return list(self._label_ids)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        n = len(self.labels)
        if n == 0:
            return True
        rows = self._rows
        seen = bytearray(n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for w in rows[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == n

    def connected_components(self) -> List[List[int]]:
        """All connected components as sorted vertex lists."""
        n = len(self.labels)
        rows = self._rows
        seen = bytearray(n)
        components: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for w in rows[u]:
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
                        stack.append(w)
            comp.sort()
            components.append(comp)
        return components

    def induced_subgraph(self, vertices: Iterable[int]) -> "LabeledGraph":
        """The subgraph induced by ``vertices``, with ids re-densified.

        The mapping from old to new ids follows the sorted order of the given
        vertex set; useful for extracting query graphs from a data graph.
        The result carries this graph's name with an ``/induced`` suffix.
        """
        vs = sorted(set(vertices))
        remap = {old: new for new, old in enumerate(vs)}
        labels = [self.labels[v] for v in vs]
        edges = [
            (remap[u], remap[v])
            for u in vs
            for v in self._rows[u]
            if u < v and v in remap
        ]
        return LabeledGraph(labels, edges, name=f"{self.name}/induced" if self.name else "")
