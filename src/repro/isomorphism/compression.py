"""Vertex-equivalence compression for subgraph querying (BoostIso-style).

The paper generates its exhaustive embedding streams with BoostIso [24],
which "rewrites vertices with the same neighborhood as a super node" —
structurally equivalent data vertices are interchangeable in any embedding,
so the search can run over equivalence *classes* and multiply out the
combinations. Two standard equivalence notions are used:

* **false twins** — same label and identical open neighborhoods
  ``N(v) == N(w)`` (no edge between the twins);
* **true twins** — same label and identical closed neighborhoods
  ``N(v) ∪ {v} == N(w) ∪ {w}`` (the twins form a clique).

:class:`CompressedGraph` partitions the data graph into twin classes;
:func:`count_embeddings_compressed` runs Algorithm-1-style backtracking
over classes and multiplies falling factorials ``m * (m-1) * ...`` for the
members drawn from each class; :func:`enumerate_embeddings_compressed`
expands class assignments back into concrete embeddings, and
:func:`iter_embeddings_compressed` does the same **lazily** — class-level
frames are searched first and concrete members are drawn only when a frame
is actually consumed, which is what lets coverage-aware consumers stop a
fan-out region after the few members they need.

Since PR 10 the partition also backs the *compiled-plan hot path*
(``DSQLConfig.use_compression``): :class:`~repro.indexes.graph_cache.
GraphIndexCache` caches one ``CompressedGraph`` per ``(epoch, delta_seq)``,
plans compile class-level candidate pools and the ``cbitset`` kernel over
class ids (:mod:`repro.indexes.plans`), and the engines fold per-frame join
masks over classes instead of vertices. Those masks live here:
:meth:`CompressedGraph.class_join_mask` encodes, for a class ``c``, every
class whose members are adjacent to *all* members of ``c`` — by twin
symmetry one bit test per candidate replaces the per-vertex adjacency mask
at ``num_classes`` bits instead of ``num_vertices``.

Live mutation keeps the partition honest without rebuilds
(:meth:`CompressedGraph.apply_delta`): an edge delta changes exactly its
two endpoints' neighborhoods, so those endpoints are **split** out of their
classes into fresh singletons and every derived view (adjacency, join
masks) is invalidated; untouched classes remain valid twin classes because
their members' neighborhoods never changed. The partition only refines
under mutation — re-merging is deferred to the next cache build.

Exactness (same counts and same embedding sets as the plain engine) is
asserted in the test suite; the win is on graphs with interchangeable
vertices — precisely the fan-out regions that dominate exhaustive
enumeration cost (e.g. the paper's Example 6/7 scenarios, or affiliation
graphs where many leaf actors attach to the same movie).
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.exceptions import BudgetExceeded
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.backtrack import ExpansionMeter
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.match import Mapping


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
    lazy_expansions:
        Number of concrete embeddings drawn out of class frames by the lazy
        expander (:func:`iter_embeddings_compressed`).

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
        self.lazy_expansions = 0
        # Optional sink mirroring lazy_expansions into a metrics registry
        # (wired by GraphIndexCache.compressed when instrumentation is on).
        self.on_lazy_expansion: Optional[Callable[[], None]] = None
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
        self-bit for multi-member cliques. This is the compressed analogue
        of :meth:`~repro.indexes.graph_cache.GraphIndexCache.
        adjacency_mask` — ``num_classes`` bits instead of ``num_vertices``,
        and one mask shared by every member of the class.
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


class _ClassSearch:
    """Backtracking over classes with per-class usage counting.

    The search order and backward lists come off the plan ``candidates``
    views; the class-level candidate pools are its vertex pools re-encoded
    in ``compressed``'s class ids (twins share degree and signature, so a
    class is a candidate iff any member is).
    """

    def __init__(
        self,
        compressed: CompressedGraph,
        query: QueryGraph,
        candidates: CandidateIndex,
        node_budget: Optional[int] = None,
    ) -> None:
        self.compressed = compressed
        self.query = query
        self.nodes_expanded = 0
        self.budget_exhausted = False
        self._meter = ExpansionMeter(self, node_budget)
        plan = candidates.plan
        self.order = plan.order
        self._backward = plan.backward
        class_of = compressed.class_of
        self.class_candidates: List[Set[int]] = [
            {class_of[v] for v in pool} for pool in plan.pools
        ]

    def assignments(self) -> Iterator[List[int]]:
        """Yield query-node -> class-id assignments satisfying all edges;
        stops cleanly on budget."""
        q = self.query.size
        assignment = [UNMATCHED] * q
        usage: Dict[int, int] = {}
        try:
            yield from self._recurse(0, assignment, usage)
        except BudgetExceeded:
            return

    def _ok(self, u: int, cid: int, assignment: List[int]) -> bool:
        compressed = self.compressed
        for u2 in self.query.neighbors(u):
            c2 = assignment[u2]
            if c2 == UNMATCHED:
                continue
            if not compressed.adjacent(cid, c2):
                return False
        return True

    def _recurse(
        self, depth: int, assignment: List[int], usage: Dict[int, int]
    ) -> Iterator[List[int]]:
        if depth == self.query.size:
            yield list(assignment)
            return
        u = self.order[depth]
        backward = self._backward[depth]
        if backward:
            pool: Set[int] = set()
            first = assignment[backward[0]]
            pool |= self.compressed.neighbors(first) | {first}
            pool &= self.class_candidates[u]
        else:
            pool = self.class_candidates[u]
        charge = self._meter.charge
        for cid in sorted(pool):
            charge()
            if usage.get(cid, 0) >= self.compressed.size(cid):
                continue
            if not self._ok(u, cid, assignment):
                continue
            assignment[u] = cid
            usage[cid] = usage.get(cid, 0) + 1
            yield from self._recurse(depth + 1, assignment, usage)
            usage[cid] -= 1
            assignment[u] = UNMATCHED


def count_embeddings_compressed(
    graph: LabeledGraph,
    query: QueryGraph,
    compressed: Optional[CompressedGraph] = None,
    node_budget: Optional[int] = None,
    candidates: Optional[CandidateIndex] = None,
) -> Tuple[int, bool]:
    """``(count, complete)`` via class search + falling factorials.

    ``complete`` mirrors :func:`repro.isomorphism.qsearch.count_embeddings`:
    ``False`` when ``node_budget`` tripped and the count is a lower bound.
    """
    candidates = candidates or CandidateIndex(graph, query)
    if candidates.any_empty():
        return 0, True
    compressed = compressed or CompressedGraph(graph)
    search = _ClassSearch(compressed, query, candidates, node_budget=node_budget)
    total = 0
    for assignment in search.assignments():
        counts: Dict[int, int] = {}
        for cid in assignment:
            counts[cid] = counts.get(cid, 0) + 1
        ways = 1
        for cid, used in counts.items():
            m = compressed.size(cid)
            for i in range(used):
                ways *= m - i
        total += ways
    return total, not search.budget_exhausted


def iter_embeddings_compressed(
    graph: LabeledGraph,
    query: QueryGraph,
    compressed: Optional[CompressedGraph] = None,
    node_budget: Optional[int] = None,
    candidates: Optional[CandidateIndex] = None,
) -> Iterator[Mapping]:
    """Lazily expand class frames into concrete embeddings.

    The class-level search runs first; each accepted class assignment (one
    *class frame*) is expanded member-combination by member-combination only
    as the consumer pulls. A coverage-driven consumer that stops after a few
    embeddings of a fan-out region therefore never pays for the rest of the
    cross product — the collapse-then-expand shape of [24] with the
    expansion on demand.
    """
    candidates = candidates or CandidateIndex(graph, query)
    if candidates.any_empty():
        return
    compressed = compressed or CompressedGraph(graph)
    search = _ClassSearch(compressed, query, candidates, node_budget=node_budget)
    for assignment in search.assignments():
        groups: Dict[int, List[int]] = {}
        for u, cid in enumerate(assignment):
            groups.setdefault(cid, []).append(u)
        for mapping in _iter_expansions(groups, compressed, len(assignment)):
            compressed.lazy_expansions += 1
            if compressed.on_lazy_expansion is not None:
                compressed.on_lazy_expansion()
            yield mapping


def _iter_expansions(
    groups: Dict[int, List[int]],
    compressed: CompressedGraph,
    q: int,
) -> Iterator[Mapping]:
    """All concrete embeddings of one class assignment, lazily.

    Per class, an ordered selection of distinct members is drawn for the
    query nodes assigned to it; the cross product over classes enumerates
    exactly the plain engine's embedding set for this frame (order
    differs).
    """
    class_ids = list(groups)

    def recurse(index: int, mapping: Dict[int, int]) -> Iterator[Mapping]:
        if index == len(class_ids):
            yield tuple(mapping[u] for u in range(q))
            return
        cid = class_ids[index]
        nodes = groups[cid]
        for combo in permutations(compressed.classes[cid], len(nodes)):
            for u, v in zip(nodes, combo):
                mapping[u] = v
            yield from recurse(index + 1, mapping)

    return recurse(0, {})


def enumerate_embeddings_compressed(
    graph: LabeledGraph,
    query: QueryGraph,
    limit: Optional[int] = None,
    compressed: Optional[CompressedGraph] = None,
    candidates: Optional[CandidateIndex] = None,
) -> List[Mapping]:
    """Concrete embeddings by expanding each class assignment.

    Expansion draws, per class, an ordered selection of distinct members for
    the query nodes assigned to it; the cross product over classes
    enumerates exactly the plain engine's embedding set (order differs).
    ``limit`` truncates to at most ``limit`` embeddings; ``limit <= 0``
    returns an empty list (pinned by the ``_expand`` unit tests — the
    truncation check runs *before* an embedding is recorded, so a zero
    limit can never over-report).
    """
    candidates = candidates or CandidateIndex(graph, query)
    if candidates.any_empty():
        return []
    compressed = compressed or CompressedGraph(graph)
    search = _ClassSearch(compressed, query, candidates)
    out: List[Mapping] = []
    if limit is not None and limit <= 0:
        return out
    for assignment in search.assignments():
        groups: Dict[int, List[int]] = {}
        for u, cid in enumerate(assignment):
            groups.setdefault(cid, []).append(u)
        if _expand(groups, compressed, assignment, out, limit):
            return out
    return out


def _expand(
    groups: Dict[int, List[int]],
    compressed: CompressedGraph,
    assignment: List[int],
    out: List[Mapping],
    limit: Optional[int],
) -> bool:
    """Cross-product expansion of one class assignment into ``out``.

    Returns ``True`` exactly when ``out`` holds ``limit`` embeddings and
    enumeration must stop — the "True when limited" contract the lazy
    expander and the Phase-1 stream sit on. The limit check runs *before*
    each append: ``len(out)`` can never exceed ``limit``, a pre-filled
    ``out`` at the limit adds nothing, and ``limit <= 0`` appends nothing
    (pinned by ``tests/isomorphism/test_compression_expand.py``).
    """
    class_ids = list(groups)

    def recurse(index: int, mapping: Dict[int, int]) -> bool:
        if limit is not None and len(out) >= limit:
            return True
        if index == len(class_ids):
            out.append(tuple(mapping[u] for u in range(len(assignment))))
            return limit is not None and len(out) >= limit
        cid = class_ids[index]
        nodes = groups[cid]
        for combo in permutations(compressed.classes[cid], len(nodes)):
            for u, v in zip(nodes, combo):
                mapping[u] = v
            if recurse(index + 1, mapping):
                return True
        return False

    return recurse(0, {})
