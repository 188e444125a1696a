"""Query-node ranking (the ``qList`` of Section 4).

DSQL ranks query nodes by selectivity: the score of node ``u`` is
``|candS(u)| / degree(u)`` — few candidates and high degree both make a node
a good early anchor. The most selective node is searched first; ties break by
node id so results are deterministic for a fixed graph and query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.graph.query_graph import QueryGraph

if TYPE_CHECKING:
    from repro.indexes.candidates import CandidateIndex


def _scores(query: QueryGraph, sizes: Sequence[int]) -> List[float]:
    # Isolated nodes cannot occur (queries are connected with >= 1 node); a
    # single-node query has degree 0 and scores its pool size.
    scores: List[float] = []
    for u, size in enumerate(sizes):
        deg = query.degree(u)
        scores.append(size / deg if deg else float(size))
    return scores


def selectivity_scores(query: QueryGraph, candidates: "CandidateIndex") -> List[float]:
    """Per-node scores ``|candS(u)| / degree(u)``."""
    return _scores(query, candidates.sizes())


def selectivity_ranking(query: QueryGraph, sizes: Sequence[int]) -> List[int]:
    """Query nodes ascending by ``sizes[u] / degree(u)``, ties by node id.

    The one implementation of the ranking: plan compilation calls it with
    the resolved pool sizes and stores the result as ``QueryPlan.qlist``.
    """
    scores = _scores(query, sizes)
    return sorted(range(query.size), key=lambda u: (scores[u], u))


def selectivity_order(query: QueryGraph, candidates: "CandidateIndex") -> List[int]:
    """``qList``: query nodes sorted ascending by selectivity score.

    Lower score = more selective = searched earlier. Read off the compiled
    plan ``candidates`` views, which ranked the nodes once at compile time.
    """
    return list(candidates.plan.qlist)


def rank_of(qlist: Sequence[int]) -> List[int]:
    """Inverse permutation: ``rank_of(qlist)[u]`` is the rank of node ``u``."""
    ranks = [0] * len(qlist)
    for r, u in enumerate(qlist):
        ranks[u] = r
    return ranks
