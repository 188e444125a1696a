"""Father-ordered query lists (``qfList``) and the Rm statistics (Section 5).

The localized-search optimization (Section 5.1) replaces the flat ``qList``
with ``qfList``: a list of ``(node, father)`` pairs in which every node except
the first has a **father** — a query node processed earlier and adjacent in
``Q``. Matching then proceeds father-first, so the candidates of a node can be
restricted to the neighborhood of its father's matched vertex.

This module also computes the two per-node statistics of Section 5.2 that
drive the single-embedding search mode:

* ``labelRm(u)``    — number of nodes ranked *after* ``u`` sharing its label;
* ``neighborRm(u)`` — number of nodes ranked *after* ``u`` adjacent to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.graph.query_graph import QueryGraph
from repro.queries.ordering import rank_of

NO_FATHER = -1


class QFEntry(NamedTuple):
    """One ``qfList`` element: a query node and its designated father.

    ``father`` is :data:`NO_FATHER` (-1) for the root entry.
    """

    node: int
    father: int


@dataclass(frozen=True)
class QFList:
    """An ordered father list plus the derived per-node statistics.

    Attributes
    ----------
    entries:
        ``qfList`` in search order.
    rank:
        ``rank[u]`` is the position of node ``u`` in :attr:`entries`.
    label_rm, neighbor_rm:
        The Section 5.2 statistics, indexed by *query node id* (not rank).
    """

    entries: Tuple[QFEntry, ...]
    rank: Tuple[int, ...]
    label_rm: Tuple[int, ...]
    neighbor_rm: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


def resort_basis(query: QueryGraph, qlist: Sequence[int]) -> Tuple[tuple, Tuple[bool, ...]]:
    """What :func:`resort_order` reads of ``query`` ranked by ``qlist``: each
    node's neighbors in rank order, and whether it has degree 1. Tuples of
    atoms, which the cyclic collector stops tracking: a plan keeps its basis
    for life, and tracked lists would push full collections of the graph."""
    ranks = rank_of(qlist).__getitem__
    by_rank = tuple(tuple(sorted(query.neighbors(u), key=ranks)) for u in range(query.size))
    return by_rank, tuple(query.degree(u) == 1 for u in range(query.size))


def resort_order(
    qlist: Sequence[int], by_rank: Sequence[tuple], leaf: Sequence[bool], qovp: Collection[int]
) -> List[Tuple[int, int]]:
    """The ``reSort`` subroutine (Section 5.1): ``qfList`` as ``(node, father)`` pairs.

    The root is the first node of ``qlist`` that belongs to ``qovp`` (the
    overlap nodes, which are matched before the search starts), or simply the
    first node of ``qlist`` when ``qovp`` is empty. From the root we expand
    breadth-first: each unplaced neighbor of the current node gets the
    current node as father. Neighbors in ``qovp`` are placed before other
    neighbors (matched nodes deserve higher ranks), then by ``qlist`` rank:
    ``by_rank`` (:func:`resort_basis`) is in rank order, so a stable partition.

    Finally, entries whose node has degree 1 in ``Q`` (``leaf``) are shifted
    to the end of the list; a degree-1 node's only neighbor is its father, so
    the shift cannot orphan anyone, and deferring forced leaves lets the
    conflict and single-embedding machinery cut the search earlier.
    """
    root = next((u for u in qlist if u in qovp), qlist[0])
    order = [(root, NO_FATHER)]
    placed = [False] * len(qlist)
    placed[root] = True
    for u, _ in order:  # the list grows while it is walked: breadth-first
        rest = []
        for w in by_rank[u]:
            if not placed[w]:
                placed[w] = True
                if w in qovp:
                    order.append((w, u))
                else:
                    rest.append((w, u))
        order += rest
    # The root must stay first even when it has degree 1 — its children's
    # localization depends on the father being matched before them.
    children = order[1:]
    return order[:1] + [e for e in children if not leaf[e[0]]] + [e for e in children if leaf[e[0]]]


def order_statistics(order: Sequence[Tuple[int, int]], labels) -> Tuple[List[int], List[int]]:
    """``(rank, label_rm)`` by node of a :func:`resort_order`: its position,
    and how many later nodes share its label, counted from the end."""
    rank, label_rm = [0] * len(order), [0] * len(order)
    later: Dict = {}
    for r in range(len(order) - 1, -1, -1):
        u = order[r][0]
        rank[u] = r
        label_rm[u] = later.get(labels[u], 0)
        later[labels[u]] = label_rm[u] + 1
    return rank, label_rm


def resort(
    query: QueryGraph,
    qlist: Sequence[int],
    qovp: Set[int] = frozenset(),
) -> QFList:
    """Build a :class:`QFList` per the ``reSort`` subroutine (Section 5.1):
    :func:`resort_order` with its :func:`order_statistics` and each node's
    ``neighborRm``, read off its own neighbors."""
    order = resort_order(qlist, *resort_basis(query, qlist), qovp)
    rank, label_rm = order_statistics(order, query.labels)
    neighbor_rm = [sum(rank[w] > rank[u] for w in query.neighbors(u)) for u in range(query.size)]
    return QFList(
        entries=tuple(QFEntry(u, father) for u, father in order),
        rank=tuple(rank),
        label_rm=tuple(label_rm),
        neighbor_rm=tuple(neighbor_rm),
    )


def validate_qflist(query: QueryGraph, qf: QFList) -> None:
    """Assert structural invariants of a :class:`QFList` (used in tests).

    * every query node appears exactly once;
    * the first entry has no father; every other father precedes its child
      and is adjacent to it in ``Q``.
    """
    nodes = [e.node for e in qf.entries]
    if sorted(nodes) != list(range(query.size)):
        raise ValueError(f"qfList covers nodes {sorted(nodes)}, expected 0..{query.size - 1}")
    seen: Set[int] = set()
    for i, entry in enumerate(qf.entries):
        if i == 0:
            if entry.father != NO_FATHER:
                raise ValueError("first qfList entry must have father -1")
        else:
            if entry.father == NO_FATHER:
                raise ValueError(f"non-first entry {entry.node} lacks a father")
            if entry.father not in seen:
                raise ValueError(
                    f"father {entry.father} of node {entry.node} not processed earlier"
                )
            if not query.has_edge(entry.node, entry.father):
                raise ValueError(
                    f"father {entry.father} not adjacent to node {entry.node} in Q"
                )
        seen.add(entry.node)
