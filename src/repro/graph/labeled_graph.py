"""Undirected, vertex-labeled data graphs.

This module provides :class:`LabeledGraph`, the data-graph substrate of the
paper (Section 2): ``G = (V, E, Sigma, L)`` with

* ``V`` — vertices identified by dense integer ids ``0 .. n-1``;
* ``E`` — undirected simple edges (no self-loops, no multi-edges);
* ``Sigma`` — a set of hashable vertex labels;
* ``L`` — a total labeling function ``V -> Sigma``.

Storage is delegated to :class:`~repro.graph.csr.CSRBackend`: per-vertex
sorted neighbor tuples and membership sets, degrees and interned labels,
updated in place by writes. ``has_edge`` is an O(1) expected probe — the hot
operation inside the backtracking join test — and ``neighbors(v)`` returns
the *sorted* neighbor tuple, so every iteration order in the library is
deterministic by construction.

Per-graph derived state (label inverted index, neighborhood signatures,
candidate pools) lives in a :class:`~repro.indexes.graph_cache.
GraphIndexCache` pinned to the graph via :meth:`LabeledGraph.index_cache`
and shared by all queries against it.

Graphs support **live mutation**: :meth:`LabeledGraph.add_vertex`,
:meth:`~LabeledGraph.add_edge`, :meth:`~LabeledGraph.remove_edge`, and the
batched :meth:`~LabeledGraph.mutate` apply deltas to the storage and repair
the pinned index cache incrementally (only state derived from the touched
1-hop neighborhoods is recomputed; see ``docs/mutation.md`` for the full
contract). Bulk construction still goes through
:class:`repro.graph.builder.GraphBuilder`. :meth:`~LabeledGraph.compact` is
the logical checkpoint of that write stream — it empties the mutation log
and nothing else — taken once :data:`DEFAULT_COMPACTION_THRESHOLD` edge
deltas have accumulated; it moves no adjacency data.
"""

from __future__ import annotations

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
from repro.graph.csr import CSRBackend, check_edge, check_label

Label = Hashable
Edge = Tuple[int, int]

DEFAULT_COMPACTION_THRESHOLD = 4096
"""Edge deltas applied before :meth:`LabeledGraph.mutate` auto-compacts.
Compaction bounds the mutation log the writer keeps and pool workers replay;
its only price is a rebuild of the worker pools built before the writes it
drops. Explicit :meth:`LabeledGraph.compact` is always available."""


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
    """

    __slots__ = (
        "_backend",
        "_cache",
        "name",
        "has_edge",
        "neighbors",
        "neighbor_set",
        "degree",
        "label",
    )

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Edge] = (),
        name: str = "",
    ) -> None:
        self._adopt(CSRBackend(labels, edges), name)

    def _adopt(self, backend: CSRBackend, name: str) -> None:
        self._backend = backend
        self._cache = None
        self.name = name
        # Hot accessors are bound straight to the storage — one attribute
        # lookup instead of a delegating method call on the join path.
        self.has_edge = backend.has_edge
        self.neighbors = backend.neighbors
        self.neighbor_set = backend.neighbor_set
        self.degree = backend.degree
        self.label = backend.label

    # ------------------------------------------------------------------
    # Storage & cache access
    # ------------------------------------------------------------------
    @classmethod
    def from_backend(cls, backend: CSRBackend, name: str = "") -> "LabeledGraph":
        """Wrap an already-constructed backend without renormalizing edges.

        Used by :func:`repro.parallel.pool.worker_graph`, where the backend
        is the storage a worker process was started with — inherited or
        unpickled, its rows already sorted and symmetric — and only the
        derived state is built anew. The backend is adopted as-is; callers
        are responsible for its invariants.
        """
        graph = cls.__new__(cls)
        graph._adopt(backend, name)
        return graph

    @property
    def backend(self) -> CSRBackend:
        """The storage instance owning this graph's topology."""
        return self._backend

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

        The pinned index cache (if built) is repaired in place: the label
        index gains the vertex, its (empty) signature is registered, memoized
        pools over its label gain it where it qualifies, and plans over its
        label are evicted.
        """
        v = self._backend.add_vertex(label)
        if self._cache is not None:
            self._cache.apply_delta((("add_vertex", v, label),))
        return v

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge ``(u, v)``; returns ``False`` if present.

        Self-loops and out-of-range endpoints raise
        :class:`~repro.exceptions.GraphError`. On success the pinned index
        cache is delta-repaired for the two endpoints only.
        """
        applied = self._backend.add_edge(u, v)
        if applied and self._cache is not None:
            self._cache.apply_delta((("add_edge", u, v),))
        return applied

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge ``(u, v)``; returns ``False`` if absent."""
        applied = self._backend.remove_edge(u, v)
        if applied and self._cache is not None:
            self._cache.apply_delta((("remove_edge", u, v),))
        return applied

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
        backend = self._backend
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
        # or the pinned cache would diverge from a half-mutated backend.
        # Endpoint bounds account for vertices added earlier in this batch.
        n = backend.num_vertices
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
                v = backend.add_vertex(op[1])
                applied.append(("add_vertex", v, op[1]))
            elif kind == "add_edge":
                if backend.add_edge(op[1], op[2]):
                    applied.append(("add_edge", op[1], op[2]))
            else:
                if backend.remove_edge(op[1], op[2]):
                    applied.append(("remove_edge", op[1], op[2]))
        if applied and self._cache is not None:
            self._cache.apply_delta(applied)
        compacted = False
        if compaction_threshold is not None and backend.delta_size >= compaction_threshold:
            self.compact()
            compacted = True
        return MutationSummary(len(applied), compacted, self.version)

    def compact(self) -> None:
        """Checkpoint the write stream: empty the mutation log.

        Topology, every answer, :attr:`version`, compiled plans and session
        memos are unchanged, and no adjacency data moves. The storage's
        delta counter restarts and the log is dropped, which bounds the tail
        pool workers replay; a worker pool built before a write the log no
        longer holds is stale (:class:`~repro.exceptions.StaleSegmentError`,
        not a guess at ops it cannot fetch), one built after the last is not.
        """
        self._backend.compact()
        if self._cache is not None:
            self._cache.truncate_log()

    def replay(self, entries: Iterable[Tuple[int, Tuple]]) -> None:
        """Re-apply a mutation-log tail (``(seq, op)`` pairs) to this graph.

        The worker catch-up path: a pool worker's graph replays the
        parent's ops so its views and cache version converge on the
        parent's. Ops must be contiguous, start right after this graph's
        current ``delta_seq``, and re-apply cleanly; any skew raises
        :class:`~repro.exceptions.GraphError`. The ops go to the backend in
        order and the cache is repaired once for the whole tail — also when
        an op raises, so cache and backend then agree on exactly the ops
        before it.
        """
        cache = self.index_cache()
        backend = self._backend
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
                    if op[1] != backend.num_vertices:
                        raise GraphError(
                            f"replay skew: add_vertex would produce id "
                            f"{backend.num_vertices}, log says {op[1]}"
                        )
                    backend.add_vertex(op[2])
                elif kind == "add_edge":
                    if not backend.add_edge(op[1], op[2]):
                        raise GraphError(f"replay skew: edge {op[1:]} already present")
                elif kind == "remove_edge":
                    if not backend.remove_edge(op[1], op[2]):
                        raise GraphError(f"replay skew: edge {op[1:]} already absent")
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
        return self._backend.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._backend.num_edges

    def vertices(self) -> range:
        """All vertex ids, as a ``range`` (cheap, re-iterable)."""
        return range(self._backend.num_vertices)

    def edges(self) -> Iterator[Edge]:
        """Yield every undirected edge exactly once, as ``(u, v)`` with u < v.

        Deterministic: edges come out sorted lexicographically.
        """
        return self._backend.edges()

    @property
    def labels(self) -> Sequence[Label]:
        """The full label table (read-only view by convention)."""
        return self._backend.labels

    # ``label``, ``neighbors``, ``neighbor_set``, ``degree``, ``has_edge`` are
    # bound in ``__init__`` directly to the backend; ``neighbors(v)`` returns
    # the sorted tuple of neighbors (plain Python ints), ``neighbor_set(v)``
    # the same vertices as the hash set ``has_edge`` probes (read-only).

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self._backend.num_vertices

    def __len__(self) -> int:
        return self._backend.num_vertices

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
        return set(self._backend.label_table)

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
        n = self._backend.num_vertices
        if not n:
            return 0.0
        return 2.0 * self._backend.num_edges / n

    def degree_sequence(self) -> List[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return self._backend.degree_sequence()

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        n = self._backend.num_vertices
        if n == 0:
            return True
        neighbors = self._backend.neighbors
        seen = bytearray(n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for w in neighbors(u):
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == n

    def connected_components(self) -> List[List[int]]:
        """All connected components as sorted vertex lists."""
        n = self._backend.num_vertices
        neighbors = self._backend.neighbors
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
                for w in neighbors(u):
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
        labels = [self._backend.label(v) for v in vs]
        edges = [
            (remap[u], remap[v])
            for u in vs
            for v in self._backend.neighbors(u)
            if u < v and v in remap
        ]
        return LabeledGraph(labels, edges, name=f"{self.name}/induced" if self.name else "")
