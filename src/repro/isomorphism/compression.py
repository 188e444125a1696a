"""The twin-class partition of a data graph (BoostIso-style).

BoostIso [24] "rewrites vertices with the same neighborhood as a super
node": structurally equivalent data vertices are interchangeable in any
embedding. Two standard equivalence notions are used:

* **false twins** — same label and identical open neighborhoods
  ``N(v) == N(w)`` (no edge between the twins);
* **true twins** — same label and identical closed neighborhoods
  ``N(v) ∪ {v} == N(w) ∪ {w}`` (the twins form a clique).

:class:`CompressedGraph` partitions the data graph into twin classes. The
partition backs the level engine's compressed join
(``DSQLConfig.use_compression``): :class:`~repro.indexes.graph_cache.
GraphIndexCache` keeps one ``CompressedGraph`` for its life, repaired in
place by every write (below), and a frame with two or more matched
neighbors folds their classes' join masks instead of intersecting their
neighbor sets. Those masks live here:
:meth:`CompressedGraph.class_join_mask` encodes, for a class ``c``, every
class whose members are adjacent to *all* members of ``c`` — by twin
symmetry one bit test per candidate on ``num_classes`` bits.

Live mutation keeps the partition honest without rebuilds
(:meth:`CompressedGraph.apply_delta`): an edge delta changes exactly its
two endpoints' neighborhoods, so those endpoints are **split** out of their
classes into fresh singletons and every derived view (adjacency, join
masks) is invalidated; untouched classes remain valid twin classes because
their members' neighborhoods never changed. The partition only refines
under mutation — re-merging is deferred to the next cache build.

Exactness (compression on and off give the same results and the same
expansion counts) is asserted in
``tests/property/test_compression_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph


class CompressedGraph:
    """A twin-class partition of a labeled graph.

    Attributes
    ----------
    classes:
        List of member tuples; ``classes[c]`` are the vertices of class ``c``
        in ascending order.
    class_of:
        ``class_of[v]`` is the class id of vertex ``v``.
    clique:
        ``clique[c]`` is True for true-twin (clique) classes — query edges
        *within* the class are satisfiable.
    split_repairs:
        Number of vertices split out of their class by
        :meth:`apply_delta` over this object's lifetime.

    Class adjacency and the per-class join masks are derived **lazily from a
    representative member** and memoized: every member of a valid twin class
    has the same neighborhood (closed, for cliques), so one neighbor-row
    scan answers for the whole class. Lazy derivation is also what makes
    delta repair cheap — :meth:`apply_delta` only has to drop memos, never
    patch them. Memoized values are pure functions of immutable state
    between deltas, so concurrent rebuilds race benignly (equal values; the
    last store wins — the same contract as the plan lazies).
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self.classes: List[Tuple[int, ...]] = []
        self.class_of: List[int] = [-1] * graph.num_vertices
        self.clique: List[bool] = []
        self.split_repairs = 0
        self._adjacency: Dict[int, Set[int]] = {}
        self._join_masks: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        graph = self.graph
        # Pass 1: false twins (identical open neighborhoods).
        open_groups: Dict[Tuple, List[int]] = {}
        for v in graph.vertices():
            key = (graph.label(v), frozenset(graph.neighbors(v)))
            open_groups.setdefault(key, []).append(v)

        assigned = [False] * graph.num_vertices
        for (label, _nbrs), members in open_groups.items():
            if len(members) > 1:
                self._add_class(members, clique=False, assigned=assigned)

        # Pass 2: true twins (identical closed neighborhoods) among the rest.
        closed_groups: Dict[Tuple, List[int]] = {}
        for v in graph.vertices():
            if assigned[v]:
                continue
            key = (graph.label(v), frozenset(graph.neighbors(v)) | {v})
            closed_groups.setdefault(key, []).append(v)
        for (_label, _nbrs), members in closed_groups.items():
            if len(members) > 1:
                self._add_class(members, clique=True, assigned=assigned)

        # Singletons for everything left.
        for v in graph.vertices():
            if not assigned[v]:
                self._add_class([v], clique=False, assigned=assigned)

    def _add_class(self, members: Sequence[int], clique: bool, assigned: List[bool]) -> None:
        cid = len(self.classes)
        self.classes.append(tuple(sorted(members)))
        self.clique.append(clique)
        for v in members:
            self.class_of[v] = cid
            assigned[v] = True

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """Number of twin classes (== vertices of the compressed graph)."""
        return len(self.classes)

    def size(self, cid: int) -> int:
        """Multiplicity of class ``cid``."""
        return len(self.classes[cid])

    def label(self, cid: int) -> object:
        """The shared label of class ``cid``."""
        return self.graph.label(self.classes[cid][0])

    def neighbors(self, cid: int) -> Set[int]:
        """Classes adjacent to ``cid`` (excluding itself).

        Derived from the representative member's neighbor row: twins share
        their (open or closed) neighborhood, so the class ids of one
        member's neighbors are the class ids of every member's neighbors.
        """
        adj = self._adjacency.get(cid)
        if adj is None:
            class_of = self.class_of
            adj = {class_of[w] for w in self.graph.neighbors(self.classes[cid][0])}
            adj.discard(cid)
            self._adjacency[cid] = adj
        return adj

    def adjacent(self, c1: int, c2: int) -> bool:
        """Can a query edge map across ``(c1, c2)``?

        Distinct classes: any member pair carries an edge iff every member
        pair does (twin symmetry). The same class carries within-class
        edges iff it is a clique (true twins).
        """
        if c1 == c2:
            return self.clique[c1] and self.size(c1) > 1
        return c2 in self.neighbors(c1)

    def class_join_mask(self, cid: int) -> int:
        """Join constraint of class ``cid`` as a class-id bitset.

        Bit ``c`` is set iff a data vertex of class ``c`` can sit next to a
        matched vertex of class ``cid``: the adjacent classes, plus the
        self-bit for multi-member cliques: ``num_classes`` bits, one mask
        shared by every member of the class.
        """
        mask = self._join_masks.get(cid)
        if mask is None:
            mask = 0
            for c in self.neighbors(cid):
                mask |= 1 << c
            if self.clique[cid] and len(self.classes[cid]) > 1:
                mask |= 1 << cid
            self._join_masks[cid] = mask
        return mask

    def compression_ratio(self) -> float:
        """``num_classes / |V|`` — lower is more compressible."""
        n = self.graph.num_vertices
        return self.num_classes / n if n else 1.0

    # ------------------------------------------------------------------
    # Live mutation: split repair
    # ------------------------------------------------------------------
    def apply_delta(self, ops) -> int:
        """Repair the partition after the graph applied ``ops``; returns the
        number of vertices split out of a shared class.

        ``ops`` are the normalized applied mutations of
        :meth:`~repro.indexes.graph_cache.GraphIndexCache.apply_delta`. An
        edge op changes the neighborhoods of exactly its two endpoints, so
        those endpoints are detached into fresh singleton classes (class
        ids are stable: old classes shrink in place, new ids append). Every
        *other* class stays a valid twin class — its members' neighborhoods
        did not change — but the memoized adjacency/join-mask views may
        reference reassigned class ids, so all lazies are dropped and
        rebuilt on demand from the representatives.
        """
        dirty: Set[int] = set()
        grew = False
        for op in ops:
            kind = op[0]
            if kind == "add_vertex":
                v = op[1]
                if v != len(self.class_of):
                    raise ValueError(
                        f"out-of-order vertex delta: got id {v}, "
                        f"expected {len(self.class_of)}"
                    )
                cid = len(self.classes)
                self.classes.append((v,))
                self.clique.append(False)
                self.class_of.append(cid)
                grew = True
            elif kind in ("add_edge", "remove_edge"):
                dirty.add(op[1])
                dirty.add(op[2])
            else:
                raise ValueError(f"unknown mutation op {kind!r}")
        splits = 0
        for v in sorted(dirty):
            splits += self._detach(v)
        if splits or dirty or grew:
            # Memoized views may embed pre-delta class ids/neighborhoods;
            # they rebuild lazily at O(deg(representative)) each.
            self._adjacency.clear()
            self._join_masks.clear()
        self.split_repairs += splits
        return splits

    def _detach(self, v: int) -> int:
        """Split ``v`` into a fresh singleton class; returns 1 if it moved."""
        old = self.class_of[v]
        members = self.classes[old]
        if len(members) == 1:
            # Already alone in its class; its neighborhood changed, but the
            # lazy views are rebuilt from scratch after any delta.
            return 0
        self.classes[old] = tuple(w for w in members if w != v)
        cid = len(self.classes)
        self.classes.append((v,))
        self.clique.append(False)
        self.class_of[v] = cid
        return 1
