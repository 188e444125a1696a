"""Enumerate-all → max-k-coverage pipelines (Table 4).

The paper's Table 4 compares DSQL against the two-stage approach: generate
*all* embeddings with a subgraph-querying engine, then run a maximum
k-coverage algorithm (GreedyDSQ or a streaming SWAP) over them. This module
holds the two stages, :func:`generate_all` and :func:`select_top_k`; the
Table 4 loop that times them apart, like the paper's ``X + t`` rows, is
:func:`repro.experiments.paper.table4_strategies`.

Selection accepts an optional :class:`~repro.coverage.objectives.
Objective`; it then optimizes that objective's weighted element coverage
instead of distinct vertices, and returns the selected embeddings'
*element* sets (vertex sets under the default).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.coverage.core import EmbeddingSet
from repro.coverage.greedy import greedy_max_coverage
from repro.coverage.objectives import Objective
from repro.coverage.swap import Swap0, Swap1, Swap2, SwapA, SwapAlpha, swap_stream
from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.match import Mapping, distinct_by_vertex_set
from repro.isomorphism.qsearch import QSearchEngine

STRATEGIES = ("SWAP0", "SWAP1", "SWAP2", "SWAP_A", "SWAPalpha", "Greedy")
"""Selection strategies accepted by :func:`select_top_k`."""


def generate_all(
    graph: LabeledGraph,
    query: QueryGraph,
    node_budget: Optional[int] = None,
) -> Tuple[List[Mapping], bool]:
    """Stage 1: ``(stream, complete)`` — every distinct-vertex-set embedding
    (the feeding stream), and whether enumeration finished.

    ``complete`` is ``False`` when ``node_budget`` tripped: the stream is then
    a prefix, and Table 4's premise (all embeddings first) does not hold.
    """
    engine = QSearchEngine(graph, query, node_budget=node_budget)
    stream = list(distinct_by_vertex_set(engine.embeddings()))
    return stream, not engine.budget_exhausted


def select_top_k(
    embeddings: Sequence[Mapping],
    k: int,
    strategy: str,
    alpha: float = 1.0,
    objective: Optional[Objective] = None,
) -> List[EmbeddingSet]:
    """Stage 2: pick up to ``k`` embeddings with the named strategy.

    Returns the selected members as element sets of ``objective`` (vertex
    sets when ``objective`` is ``None``).
    """
    if strategy == "Greedy":
        chosen = greedy_max_coverage(embeddings, k, objective=objective)
        if objective is None:
            return chosen
        return [objective.elements(e) for e in chosen]
    conditions = {
        "SWAP0": Swap0(),
        "SWAP1": Swap1(),
        "SWAP2": Swap2(),
        "SWAP_A": SwapA(),
        "SWAPalpha": SwapAlpha(alpha=alpha),
    }
    try:
        condition = conditions[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        ) from None
    return swap_stream(embeddings, k, condition, objective=objective).members
