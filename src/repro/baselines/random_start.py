"""The naive random-start adaptation of Algorithm 1 (Section 2.2).

"A simple adaptation of this framework for DSQ is to consider all the
candidate vertices for the first query node ... and to try to retrieve
embeddings in a random manner from these starting points." One embedding is
taken per (shuffled) root candidate, hoping dispersed roots imply dispersed
embeddings. The paper observes — and our benchmarks confirm — that the
remaining search paths converge onto common vertices, so coverage stays low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.baselines.com import region_embeddings
from repro.coverage.core import coverage as coverage_of
from repro.exceptions import BudgetExceeded
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.backtrack import ExpansionMeter
from repro.isomorphism.match import Mapping
from repro.queries.ordering import selectivity_order
from repro.queries.qflist import resort


@dataclass
class RandomStartResult:
    """Outcome of the random-start baseline."""

    embeddings: List[Mapping]
    coverage: int
    k: int
    q: int

    def approx_ratio_lower_bound(self) -> float:
        """``|C(A)| / (kq)``."""
        return self.coverage / (self.k * self.q)


def random_start_search(
    graph: LabeledGraph,
    query: QueryGraph,
    k: int,
    seed: Optional[int] = 0,
    node_budget: Optional[int] = 2_000_000,
) -> RandomStartResult:
    """Collect up to ``k`` embeddings, one per shuffled root candidate."""
    candidates = CandidateIndex(graph, query)
    out = RandomStartResult(embeddings=[], coverage=0, k=k, q=query.size)
    if candidates.any_empty():
        return out
    qf = resort(query, selectivity_order(query, candidates))

    rng = random.Random(seed)
    roots = list(candidates.candidates(qf.entries[0].node))
    rng.shuffle(roots)

    # ``node_budget`` caps the whole run, not each root.
    meter = ExpansionMeter(node_budget=node_budget)
    seen: Set[frozenset] = set()
    try:
        for root_vertex in roots:
            if len(out.embeddings) >= k:
                break
            found = next(
                region_embeddings(graph, query, candidates, qf, root_vertex, meter), None
            )
            if found is not None:
                key = frozenset(found)
                if key not in seen:
                    seen.add(key)
                    out.embeddings.append(found)
    except BudgetExceeded:
        pass
    out.coverage = coverage_of(out.embeddings)
    return out
