"""The remaining worked figures of the paper (Figures 3, 4 and 5).

These pin the Section 5 optimization examples:

* :func:`figure3` — the 7-node query and data graph used by Examples 3-5
  (localized search via ``qfList`` father nodes; ``labelRm``/``neighborRm``);
* :func:`figure4` — the conflict-table example (Example 6): a hub vertex
  whose ~1000 same-label neighbors all fail a degree filter, where node
  skipping saves the wasted backtracking;
* :func:`figure5` — the bad-vertex example (Example 7): many near-identical
  mid-layer vertices that fail the same way for every upstream choice.

The graphs are built at a configurable width so tests can keep them small
while benchmarks can reproduce the papers' ~1000-vertex fan-outs.

This module also hosts the **objective scenario packs**
(:data:`OBJECTIVE_PACKS`): small adversarial graph+query pairs on which a
non-default objective (docs/objectives.md) provably selects a *different*
answer than the paper's vertex objective — the fixtures behind the
objective divergence tests (``tests/coverage/test_objectives.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.builder import GraphBuilder
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph


def figure3() -> Tuple[LabeledGraph, QueryGraph]:
    """Figure 3: the query used by Examples 3-5 and a matching data graph.

    Query nodes (0-indexed: ``uN`` of the paper is ``N - 1``):
    ``u1``:a is the hub adjacent to ``u2``:b, ``u3``:c, ``u4``:d, ``u5``:e;
    ``u5`` is adjacent to ``u6``:f and ``u7``:d — so ``u7`` shares its label
    with ``u4``, giving the Example 4 ``labelRm(u7) = 1``.

    The data graph hosts the Example 3 scenario: ``v1``:a has neighbors
    ``v5``:e, ``v4``:d, ``{v2, v12}``:b, ``{v3, v15}``:c; ``v5`` is adjacent
    to ``v6``:f and ``{v4, v7}``:d.
    """
    query = QueryGraph(
        ["a", "b", "c", "d", "e", "f", "d"],
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6)],
        name="figure3-query",
    )
    b = GraphBuilder()
    v = {}
    for name, label in [
        ("v1", "a"), ("v2", "b"), ("v3", "c"), ("v4", "d"), ("v5", "e"),
        ("v6", "f"), ("v7", "d"), ("v12", "b"), ("v15", "c"),
    ]:
        v[name] = b.add_vertex(label)
    for x, y in [
        ("v1", "v5"), ("v1", "v4"), ("v1", "v2"), ("v1", "v12"),
        ("v1", "v3"), ("v1", "v15"), ("v5", "v6"), ("v5", "v4"), ("v5", "v7"),
    ]:
        b.add_edge(v[x], v[y])
    return b.build(name="figure3"), query


def figure4(width: int = 40) -> Tuple[LabeledGraph, QueryGraph]:
    """Figure 4: the Example 6 conflict-table scenario.

    Query (0-indexed): hub ``u0``:a adjacent to ``u1``:b, ``u2``:c and
    ``u3``:d; a triangle ``u0``-``u2``-``u3``-``u0``; and a pendant chain
    ``u1``-``u4``:e that keeps ``u1`` off the degree-1 tail of ``qfList``.

    Data: the bad root ``v1``:a fans out to ``width`` b-vertices (each with
    a private e-leaf so it passes the signature filter and can host the
    pendant) and ``width`` c-vertices whose private d-partner is *not*
    adjacent to ``v1`` — so every completion attempt dies at ``u3`` on the
    triangle-closing join. The failure's conflict set is ``{u0, u2}``;
    ``u1`` is not in it, so conflict-directed skipping abandons the b-fan
    after one pass instead of re-scanning the c-fan per b-vertex. The good
    root ``v6`` hosts the single completable match.
    """
    query = QueryGraph(
        ["a", "b", "c", "d", "e"],
        [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4)],
        name="figure4-query",
    )
    b = GraphBuilder()
    v1 = b.add_vertex("a")
    # NS-fodder so v1 passes the root's signature filter ({b, c, d}): a
    # dangling d that itself fails u3's filters (no c neighbor).
    dangling_d = b.add_vertex("d")
    b.add_edge(v1, dangling_d)
    for _ in range(width):  # the b-fan; each b needs an e-neighbor for NS
        w = b.add_vertex("b")
        b.add_edge(v1, w)
        leaf = b.add_vertex("e")
        b.add_edge(w, leaf)
    a_decoy = b.add_vertex("a")  # NS-fodder for the dead d's; never a root
    for _ in range(width):  # the c-fan with non-closing d partners
        c = b.add_vertex("c")
        d = b.add_vertex("d")
        b.add_edge(v1, c)
        b.add_edge(c, d)
        b.add_edge(d, a_decoy)
    # The good region: one completable embedding rooted at v6.
    v6 = b.add_vertex("a")
    gb = b.add_vertex("b")
    ge = b.add_vertex("e")
    gc = b.add_vertex("c")
    gd = b.add_vertex("d")
    b.add_edges([(v6, gb), (gb, ge), (v6, gc), (v6, gd), (gc, gd)])
    return b.build(name="figure4"), query


def figure5(width: int = 30, teasers: int = 15) -> Tuple[LabeledGraph, QueryGraph]:
    """Figure 5: the Example 7 bad-vertex scenario.

    Query: triangle ``u0``:a - ``u1``:b - ``u2``:c plus ``u2``-``u3``:d,
    ``u3``-``u0`` (closing a second triangle) and the pendant ``u1``-``u4``:e.

    Data around the bad root ``v1``:a:

    * a b-fan and a c-fan, completely bi-connected so the b-c triangle
      always closes;
    * ``teasers`` d-vertices adjacent to ``v1`` (and to an isolated c for
      the signature filter) but never to any fan c — so matching ``u3``
      scans all of them and fails on the ``u2`` join *for every (b, c)
      combination*;
    * the failure's conflict set is ``{u0, u2}`` — the b-node ``u1`` *is*
      in the exhausted-``u2`` conflict (query edge b-c), so conflict
      skipping cannot cut the b-fan; only bad-vertex marks (each fan c is
      marked bad once) collapse the quadratic re-scan.

    The good root ``v6`` hosts the single completable embedding.
    """
    query = QueryGraph(
        ["a", "b", "c", "d", "e"],
        [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (1, 4)],
        name="figure5-query",
    )
    b = GraphBuilder()
    v1 = b.add_vertex("a")
    bs: List[int] = []
    for _ in range(width):
        w = b.add_vertex("b")
        b.add_edge(v1, w)
        leaf = b.add_vertex("e")
        b.add_edge(w, leaf)
        bs.append(w)
    cs: List[int] = []
    for _ in range(width):
        c = b.add_vertex("c")
        b.add_edge(v1, c)
        cs.append(c)
    for w in bs:
        for c in cs:
            b.add_edge(w, c)
    # Fan c's need a d neighbor for the signature filter; their private d
    # hangs off a decoy a-vertex so the u3-u0 join can never close.
    a_decoy = b.add_vertex("a")
    for c in cs:
        d = b.add_vertex("d")
        b.add_edge(c, d)
        b.add_edge(d, a_decoy)
    # Teaser d's: valid u3 candidates local to v1 that fail the u2 join.
    c_iso = b.add_vertex("c")
    for _ in range(teasers):
        d = b.add_vertex("d")
        b.add_edge(v1, d)
        b.add_edge(d, c_iso)
    # The good region: v6 completes both triangles.
    v6 = b.add_vertex("a")
    gb = b.add_vertex("b")
    ge = b.add_vertex("e")
    gc = b.add_vertex("c")
    gd = b.add_vertex("d")
    b.add_edges(
        [(v6, gb), (gb, ge), (v6, gc), (gb, gc), (gc, gd), (v6, gd)]
    )
    return b.build(name="figure5"), query


# ----------------------------------------------------------------------
# Objective scenario packs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectivePack:
    """An adversarial fixture where one objective diverges from ``vertex``.

    Running DSQL on ``(graph, query, k)`` under ``objective`` (with
    ``vertex_weights`` when set) selects a provably different embedding set
    than the default vertex run — see each pack constructor's docstring for
    the mechanism. The packs are deliberately tiny and fully deterministic;
    the divergence they encode is pinned by
    ``tests/coverage/test_objectives.py``.
    """

    name: str
    objective: str
    graph: LabeledGraph
    query: QueryGraph
    k: int
    vertex_weights: Optional[Tuple[Tuple[int, float], ...]] = None


def edge_pack() -> ObjectivePack:
    """The two-spine "book": edge diversity keeps what vertex diversity swaps.

    Query: triangle ``a-b-c``. Data: spine ``a1-b1`` with eight pages
    (each page closes a triangle with the spine), plus a second spine
    ``a2-b2`` attached to one *shared* page — the page Phase 1's first
    embedding lands on under the default retention seed (Section 5.2 caps
    the page candidates randomly with ``seed = 0``; the attachment point is
    tuned to coincide, which is what makes this pack adversarial rather
    than generic).

    With ``k = 7``, Phase 1 collects the first spine-1 triangle at level 0,
    the spine-2 triangle at level 1 (it overlaps ``V(T)`` only at the shared
    page) and five more spine-1 triangles at level 2 — 10 distinct vertices,
    vertex ratio ``10/21 < 0.5``, so the **vertex** run enters Phase 2 and
    swaps: the first triangle has vertex loss 0 (``a1``/``b1`` live in every
    other spine-1 triangle, the shared page in the spine-2 one), so a spare
    page's triangle is accepted with benefit 1 against ``(1 + alpha) * 0``.
    The **edge** run covers 16 of ``k * |E(Q)| = 21`` data edges after
    Phase 1 — ratio above the 0.5 dispatch target — so it keeps the Phase-1
    answer with the loss-0 sharing structure intact: the two runs return
    different embedding sets, the vertex one strictly better in distinct
    vertices (11 vs 10), the edge one no worse in distinct edges (16 each).
    """
    query = QueryGraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)], name="edge-pack-query")
    b = GraphBuilder()
    a1 = b.add_vertex("a")
    b1 = b.add_vertex("b")
    a2 = b.add_vertex("a")
    b2 = b.add_vertex("b")
    b.add_edge(a1, b1)
    b.add_edge(a2, b2)
    pages = [b.add_vertex("c") for _ in range(8)]
    for page in pages:
        b.add_edge(a1, page)
        b.add_edge(b1, page)
    # The second spine closes its triangle through the shared page (index
    # 4 = the first page retained by the seed-0 candidate cap).
    b.add_edge(a2, pages[4])
    b.add_edge(b2, pages[4])
    return ObjectivePack(
        name="edge-pack",
        objective="edge",
        graph=b.build(name="edge-pack"),
        query=query,
        k=7,
    )


def weighted_pack() -> ObjectivePack:
    """The heavy-vertex pair: weight mass overrules the disjoint certificate.

    Query: single edge ``a-b``. Data: two disjoint matches ``a1-b1`` and
    ``a2-b2`` plus ``a3-b4`` where ``b4`` carries explicit weight 100.

    With ``k = 2``, Phase 1 fills ``T`` with the two disjoint matches at
    level 0, and the **vertex** run stops right there: ``k`` pairwise
    disjoint embeddings are provably optimal (ratio 1). The
    **weighted-vertex** run forfeits that certificate — disjointness bounds
    *counts*, not weight mass — so it proceeds to Phase 2, where
    ``(a3, b4)`` arrives with benefit 101 against a minimum loss of 2 and is
    swapped in: the runs return different answers, and the weighted one has
    weighted coverage 103 against the vertex answer's 4.
    """
    query = QueryGraph(["a", "b"], [(0, 1)], name="weighted-pack-query")
    b = GraphBuilder()
    a1 = b.add_vertex("a")
    b1 = b.add_vertex("b")
    a2 = b.add_vertex("a")
    b2 = b.add_vertex("b")
    a3 = b.add_vertex("a")
    heavy = b.add_vertex("b")
    b.add_edges([(a1, b1), (a2, b2), (a3, heavy)])
    return ObjectivePack(
        name="weighted-pack",
        objective="weighted-vertex",
        graph=b.build(name="weighted-pack"),
        query=query,
        k=2,
        vertex_weights=((heavy, 100.0),),
    )


OBJECTIVE_PACKS: Dict[str, "ObjectivePack"] = {}
"""Objective name -> built pack; populated lazily by :func:`objective_packs`."""


def objective_packs() -> Dict[str, ObjectivePack]:
    """Build (and memoize) every objective scenario pack, keyed by objective."""
    if not OBJECTIVE_PACKS:
        for pack in (edge_pack(), weighted_pack()):
            OBJECTIVE_PACKS[pack.objective] = pack
    return OBJECTIVE_PACKS
