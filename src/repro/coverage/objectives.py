"""Pluggable diversity objectives: what an embedding *covers*.

The paper's coverage algebra (``C``, ``B``, ``L``, ``L+``; Sections 2 and 6)
is defined over *data vertices*: an embedding covers its matched vertices
and every quantity is a distinct-vertex count. That choice is baked into the
algorithms but not essential to them — TED (arXiv 2212.07612) diversifies by
covered data-graph **edges**, and volume-based diversity functions
(arXiv 2509.11929) show the same swap machinery applies to a family of
weighted coverage objectives.

This module is the seam: an :class:`Objective` maps an embedding to a set of
**coverage elements** plus a per-element weight, and everything downstream
(:class:`~repro.coverage.core.CoverageTracker`, the SWAP conditions, the
DSQL-P2 dispatch) speaks only in element terms. Three objectives ship:

=====================  ===========================================  =========
name                   elements of an embedding                      weights
=====================  ===========================================  =========
``vertex``             matched data vertices (the paper, default)   all 1
``edge``               matched data edges, one per query edge       all 1
``weighted-vertex``    matched data vertices                        per-vertex
=====================  ===========================================  =========

Guarantee survival (the full table lives in ``docs/objectives.md``):

* ``vertex`` — every claim of the paper holds; the default pipeline is
  bit-identical to the pre-seam implementation (equivalence-gated in
  ``tests/property/test_objective_equivalence.py``).
* ``edge`` — injectivity makes the per-embedding element count exactly
  ``|E(Q)|``, and vertex-disjoint solutions are edge-disjoint, so the
  *disjoint* optimality certificate survives; the *exhausted* certificate is
  forfeited (an embedding inside ``V(T)`` can still contribute fresh edges,
  but the level-wise generator never proposes vertex-covered embeddings).
  Lemma-4 early termination survives only through the weak unconditional
  bound ``B(h, T) <= |E(Q)|``.
* ``weighted-vertex`` — the *exhausted* certificate survives (a vertex-
  covered embedding has weighted benefit 0); the *disjoint* certificate is
  forfeited (disjointness no longer implies maximum weight), as are the
  Theorem 3/4/6 constants, which are proven for unit weights.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigError

Element = Union[int, Tuple[int, int]]
ElementSet = FrozenSet[Element]
Number = Union[int, float]

OBJECTIVE_NAMES: Tuple[str, ...] = ("vertex", "edge", "weighted-vertex")
"""The supported objective names, in documentation order."""


class Objective:
    """Base class for diversity objectives.

    Subclasses define what an embedding covers (:meth:`elements`) and how
    much each element is worth (:meth:`weight`); the flags tell the DSQL
    dispatcher which of the paper's shortcuts remain sound:

    Attributes
    ----------
    name:
        The registry name (one of :data:`OBJECTIVE_NAMES`).
    unit_weights:
        Every element weighs exactly 1. Enables the integer fast paths in
        :class:`~repro.coverage.core.CoverageTracker` — the default vertex
        objective must keep the paper's all-integer arithmetic.
    vertex_elements:
        Elements *are* data vertices. Required for the ``V(T1) ⊆ V(T)``
        premise of Lemma 4 (the tracker's cover set is a vertex set only
        when this holds).
    certifies_disjoint_optimal:
        ``k`` pairwise vertex-disjoint embeddings are provably optimal.
    certifies_exhausted_optimal:
        Exhausting all levels with ``|T| < k`` is provably optimal.
    """

    name: str = "abstract"
    unit_weights: bool = True
    vertex_elements: bool = True
    certifies_disjoint_optimal: bool = True
    certifies_exhausted_optimal: bool = True
    _total = sum  # how a batch of weights is added up (``math.fsum`` over floats)

    def elements(self, embedding: Iterable[int]) -> ElementSet:
        """The coverage elements of one embedding, as a frozen set."""
        raise NotImplementedError

    def weight(self, elem: Element) -> Number:
        """The weight of one element (1 unless the objective is weighted)."""
        return 1

    def measure(self, elems: Iterable[Element]) -> Number:
        """Total weight of an element set (``len`` on unit weights)."""
        if self.unit_weights:
            return len(elems) if hasattr(elems, "__len__") else sum(1 for _ in elems)
        return self._total(map(self.weight, elems))

    def collection_coverage(self, collection: Iterable[Iterable[int]]) -> Number:
        """``|C(F)|`` under this objective: measure of the element union."""
        union: set = set()
        for emb in collection:
            union.update(self.elements(emb))
        return self.measure(union)

    def max_coverage(self, k: int) -> Number:
        """Upper bound on any ``k``-collection's coverage (replaces ``k*q``)."""
        raise NotImplementedError

    def future_benefit_bound(
        self, level: int, snapshot_preserved: bool
    ) -> Optional[Number]:
        """Lemma-4 bound on ``B(h, T)`` for embeddings generated at ``level``.

        ``snapshot_preserved`` is the dispatcher's ``V(T1) ⊆ V(T)`` test
        (always ``False`` when :attr:`vertex_elements` is unset — the
        tracker then has no vertex cover set to test against). ``None``
        means no usable bound: early termination is forfeited.
        """
        raise NotImplementedError


class VertexCoverage(Objective):
    """The paper's objective: distinct matched data vertices, unit weight.

    ``q`` (the query-node count) is only needed by the dispatch-side methods
    (:meth:`max_coverage`, :meth:`future_benefit_bound`); an unbound
    instance (``q=None``) still serves as a tracker/scratch-helper default.
    """

    name = "vertex"

    def __init__(self, q: Optional[int] = None) -> None:
        self.q = q

    @staticmethod
    def elements(embedding: Iterable[int]) -> ElementSet:
        return embedding if isinstance(embedding, frozenset) else frozenset(embedding)

    def max_coverage(self, k: int) -> int:
        self._require_q()
        return k * self.q

    def future_benefit_bound(
        self, level: int, snapshot_preserved: bool
    ) -> Optional[int]:
        self._require_q()
        return self.q - level if snapshot_preserved else None

    def _require_q(self) -> None:
        if self.q is None:
            raise ConfigError(
                "this VertexCoverage is not bound to a query; construct it "
                "with q=query.size for dispatch-side bounds"
            )


class EdgeCoverage(Objective):
    """TED-style objective: the data edges an embedding maps ``E(Q)`` onto.

    Each query edge ``(u, v)`` contributes the normalized data edge
    ``(min(m[u], m[v]), max(m[u], m[v]))``. Injectivity makes the per-
    embedding element count exactly ``|E(Q)|`` — which is why embeddings
    must be passed as query-node-indexed mappings (tuples), never as bare
    vertex sets: a set has forgotten which data edges were matched.
    """

    name = "edge"
    vertex_elements = False
    certifies_exhausted_optimal = False

    def __init__(self, query) -> None:
        self.query_edges: Tuple[Tuple[int, int], ...] = tuple(query.edges())
        self.num_edges = len(self.query_edges)

    def elements(self, embedding: Sequence[int]) -> ElementSet:
        try:
            return frozenset(
                (embedding[u], embedding[v])
                if embedding[u] < embedding[v]
                else (embedding[v], embedding[u])
                for u, v in self.query_edges
            )
        except TypeError:
            raise TypeError(
                "the edge objective needs query-node-indexed mappings "
                f"(tuples), not {type(embedding).__name__!r}: a vertex set "
                "has forgotten which data edges were matched"
            ) from None

    def max_coverage(self, k: int) -> int:
        return k * self.num_edges

    def future_benefit_bound(
        self, level: int, snapshot_preserved: bool
    ) -> Optional[int]:
        # Unconditional but weak: every embedding covers exactly |E(Q)|
        # edges, so B(h, T) <= |E(Q)| regardless of level or snapshot.
        return self.num_edges


class WeightedVertexCoverage(Objective):
    """Per-vertex-weighted coverage: elements are vertices, weights vary.

    Weights come from :func:`build_weight_profile` — either supplied
    explicitly (``DSQLConfig.vertex_weights``) or derived from the dataset
    as ``1 + degree(v)`` (hub vertices are worth more, a natural notion of
    "important" coverage that needs no side-channel data). Integer-valued
    weights keep the arithmetic exact; under a float table every total is
    one ``math.fsum``, so coverage is a function of the covered set alone.

    Both dispatch-side bounds are read off the query's candidate pools
    ``candS(u)`` (the tuples the compiled plan holds, fetched again from the
    graph's pool memo): the label, degree and signature filters are
    necessary conditions, so no embedding matches ``u`` outside ``candS(u)``.
    """

    name = "weighted-vertex"
    unit_weights = False
    certifies_disjoint_optimal = False

    def __init__(self, profile: "WeightProfile", query) -> None:
        self.q = query.size
        self.weight = profile.weight
        self._total = profile.total
        cache = profile.cache
        masks = [cache.mask_for(query.neighborhood_signature(u)) for u in range(self.q)]
        self._pools: List[Tuple[int, ...]] = [
            () if mask is None else cache.candidate_pool(query.label(u), query.degree(u), mask)
            for u, mask in enumerate(masks)
        ]
        self._maxima: Optional[List[Number]] = None  # per-node, heaviest first

    elements = staticmethod(VertexCoverage.elements)

    def max_coverage(self, k: int) -> Number:
        """The smaller of two ceilings on ``k`` embeddings' covered weight.

        *Per node*: the embeddings put at most ``k`` distinct vertices at
        query node ``u``, all from ``candS(u)``, so the ``k`` heaviest of
        each pool bound the sum. *Per union*: they cover at most ``k * q``
        distinct vertices of ``∪ candS(u)``, each counted once.
        """
        weight, total = self.weight, self._total
        per_node: List[Number] = []
        for pool in self._pools:
            per_node += sorted(map(weight, pool), reverse=True)[:k]
        union = set().union(*self._pools)
        per_union = sorted(map(weight, union), reverse=True)[: k * self.q]
        return min(total(per_node), total(per_union))

    def future_benefit_bound(
        self, level: int, snapshot_preserved: bool
    ) -> Optional[Number]:
        """Lemma 4: an embedding generated at ``level`` adds at most
        ``q - level`` fresh vertices, at distinct query nodes, each no
        heavier than its node's heaviest candidate."""
        if not snapshot_preserved:
            return None
        if self._maxima is None:
            self._maxima = sorted(
                (max(map(self.weight, pool), default=0) for pool in self._pools),
                reverse=True,
            )
        return self._total(self._maxima[: self.q - level])


class WeightProfile:
    """A graph's vertex weights: a view of the graph, not a table.

    Degree-derived weights read ``1 + cache.degrees[v]`` — the list a write
    repairs in place — so one profile serves every version of its graph; an
    explicit table is ``table.get(v, 1)``. ``total`` sums a batch of
    weights: ``math.fsum`` when the table holds a float (exactly rounded,
    so independent of order), plain ``sum`` otherwise (stays an ``int``).
    """

    def __init__(self, graph, table: Optional[Dict[int, Number]] = None) -> None:
        self.cache = graph.index_cache()
        if table is None:
            degrees = self.cache.degrees
            self.weight = lambda v: 1 + degrees[v]
        else:
            get = table.get
            self.weight = lambda v: get(v, 1)
        self.total = (
            math.fsum
            if table and any(isinstance(w, float) for w in table.values())
            else sum
        )


def build_weight_profile(graph, vertex_weights=None) -> WeightProfile:
    """The weight view of ``graph``.

    ``vertex_weights`` is ``DSQLConfig.vertex_weights`` — an iterable of
    ``(vertex, weight)`` pairs overriding the default weight 1. When absent,
    weights are derived from the dataset: ``1 + degree(v)``, all integers.
    """
    if not vertex_weights:
        return WeightProfile(graph)
    table: Dict[int, Number] = {}
    for v, w in vertex_weights:
        if not 0 <= v < graph.num_vertices:
            raise ConfigError(
                f"vertex_weights names vertex {v}, but the graph has "
                f"{graph.num_vertices} vertices"
            )
        table[v] = w
    return WeightProfile(graph, table)


def make_objective(
    name: str,
    query=None,
    graph=None,
    vertex_weights=None,
    weight_profile: Optional[WeightProfile] = None,
) -> Objective:
    """Construct a bound objective by registry name.

    ``vertex`` needs ``query`` only for the dispatch-side bounds (it may be
    omitted for tracker-only use); ``edge`` needs ``query``;
    ``weighted-vertex`` needs either a prebuilt ``weight_profile`` or a
    ``graph`` (plus ``query`` for the bounds).
    """
    if name == "vertex":
        return VertexCoverage(q=query.size if query is not None else None)
    if name == "edge":
        if query is None:
            raise ConfigError("the edge objective requires the query graph")
        return EdgeCoverage(query)
    if name == "weighted-vertex":
        if query is None:
            raise ConfigError("the weighted-vertex objective requires the query graph")
        if weight_profile is None:
            if graph is None:
                raise ConfigError(
                    "the weighted-vertex objective requires the data graph "
                    "(or a prebuilt WeightProfile)"
                )
            weight_profile = build_weight_profile(graph, vertex_weights)
        return WeightedVertexCoverage(weight_profile, query)
    raise ConfigError(
        f"unknown objective {name!r}; choose from {sorted(OBJECTIVE_NAMES)}"
    )


VERTEX = VertexCoverage()
"""Unbound vertex objective: the default for trackers and scratch helpers."""
