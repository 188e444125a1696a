"""COM — the interleaving region-search competitor (Section 7.3).

COM adapts a subgraph-querying solution to diversification by *interleaving*:

1. sort the query into ``qList`` and take the first node as root;
2. open one **search region** per candidate of the root node, each an
   independent backtracking iterator over embeddings rooted there;
3. repeatedly pull one embedding from a randomly chosen live region (saving
   and restoring iterator state between jumps), until ``k`` embeddings are
   found or every region is exhausted.

Python generators give the save/restore-state semantics directly: each
region is a generator whose frame *is* the saved iterator list.

COM gets the paper's courtesy upgrades — localized (father-ordered) search
within a region — but has no mechanism to avoid overlap between regions,
which is exactly the deficiency Figure 6 quantifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from repro.coverage.core import coverage as coverage_of
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.backtrack import ExpansionMeter
from repro.isomorphism.joinable import UNMATCHED, is_joinable
from repro.isomorphism.match import Mapping
from repro.queries.ordering import selectivity_order
from repro.queries.qflist import QFList, resort


@dataclass
class COMResult:
    """Outcome of a COM run."""

    embeddings: List[Mapping]
    coverage: int
    k: int
    q: int
    regions_opened: int = 0
    regions_exhausted: int = 0
    budget_exhausted: bool = False

    def approx_ratio_lower_bound(self) -> float:
        """``|C(A)| / (kq)``."""
        return self.coverage / (self.k * self.q) if self.k and self.q else 1.0


def com_search(
    graph: LabeledGraph,
    query: QueryGraph,
    k: int,
    seed: Optional[int] = 0,
    node_budget: Optional[int] = 5_000_000,
) -> COMResult:
    """Run COM and return up to ``k`` embeddings with their coverage."""
    candidates = CandidateIndex(graph, query)
    result = COMResult(embeddings=[], coverage=0, k=k, q=query.size)
    if candidates.any_empty():
        return result

    qlist = selectivity_order(query, candidates)
    qf = resort(query, qlist)
    # One expansion counter shared across all regions of the run.
    meter = ExpansionMeter(node_budget=node_budget)
    regions: List[Iterator[Mapping]] = [
        region_embeddings(graph, query, candidates, qf, v, meter)
        for v in candidates.candidates(qf.entries[0].node)
    ]
    result.regions_opened = len(regions)

    rng = random.Random(seed)
    seen_vertex_sets: Set[frozenset] = set()
    live = list(range(len(regions)))
    try:
        while live and len(result.embeddings) < k:
            pick = rng.randrange(len(live))
            region_index = live[pick]
            try:
                mapping = next(regions[region_index])
            except StopIteration:
                live.pop(pick)
                result.regions_exhausted += 1
                continue
            key = frozenset(mapping)
            if key not in seen_vertex_sets:
                seen_vertex_sets.add(key)
                result.embeddings.append(mapping)
            # Jump away from this region regardless (the interleaving step):
            # the random pick on the next loop iteration realizes the jump.
    except BudgetExceeded:
        result.budget_exhausted = True

    result.coverage = coverage_of(result.embeddings)
    return result


def region_embeddings(
    graph: LabeledGraph,
    query: QueryGraph,
    candidates: CandidateIndex,
    qf: QFList,
    root_vertex: int,
    meter: ExpansionMeter,
) -> Iterator[Mapping]:
    """All embeddings whose root node matches ``root_vertex`` (lazy).

    The father-localized DFS in ``qfList`` order that COM's regions and the
    random-start baseline both run: a node's pool is
    ``candidates.localized`` — its father's neighbors within ``candS``
    (``resort`` gives every entry after the root a father matched earlier) —
    and each pool member is charged to ``meter`` before the join test.
    """
    assignment = [UNMATCHED] * query.size
    assignment[qf.entries[0].node] = root_vertex
    used: Set[int] = {root_vertex}
    charge = meter.charge

    def recurse(depth: int) -> Iterator[Mapping]:
        if depth == query.size:
            yield tuple(assignment)
            return
        entry = qf.entries[depth]
        u = entry.node
        for v in candidates.localized(u, assignment[entry.father]):
            charge()
            if not is_joinable(graph, query, assignment, used, u, v):
                continue
            assignment[u] = v
            used.add(v)
            yield from recurse(depth + 1)
            used.discard(v)
            assignment[u] = UNMATCHED

    yield from recurse(1)
