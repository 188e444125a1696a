"""The ``IsJoinable`` predicate of Algorithm 1.

A candidate vertex ``v`` is joinable to query node ``u`` under a partial
embedding when

* ``v`` is not already used by the partial embedding (injectivity), and
* for every query neighbor ``u'`` of ``u`` already matched to ``v'``, the
  data edge ``(v, v')`` exists.

Partial embeddings in the search engines are arrays ``assignment`` with
``assignment[u] = -1`` for unmatched nodes; that representation makes the
join test a tight loop over the query adjacency.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph

UNMATCHED = -1
"""Sentinel for "query node not yet matched" in assignment arrays."""


def is_joinable(
    graph: LabeledGraph,
    query: QueryGraph,
    assignment: Sequence[int],
    used: Set[int],
    u: int,
    v: int,
) -> bool:
    """Whether matching ``u -> v`` is consistent with ``assignment``.

    ``used`` is the set of data vertices already appearing in ``assignment``;
    passing it explicitly keeps the injectivity test O(1) instead of scanning
    the assignment array.
    """
    return v not in used and joinable_ignoring_injectivity(graph, query, assignment, u, v)


def joinable_ignoring_injectivity(
    graph: LabeledGraph,
    query: QueryGraph,
    assignment: Sequence[int],
    u: int,
    v: int,
) -> bool:
    """Edge-consistency part of the join test only.

    Used when building *dynamic conflict tables* (Section 5.3): a vertex held
    by another query node still counts as a "valid candidate" for conflict
    purposes even though injectivity currently forbids it.
    """
    has_edge = graph.has_edge
    for u2 in query.neighbors(u):
        v2 = assignment[u2]
        if v2 != UNMATCHED and not has_edge(v, v2):
            return False
    return True
