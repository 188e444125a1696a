"""Query workloads: random generation, selectivity ordering, qfList."""

from repro.queries.generator import query_set, random_query
from repro.queries.ordering import rank_of, selectivity_order, selectivity_scores
from repro.queries.qflist import NO_FATHER, QFEntry, QFList, resort, validate_qflist

__all__ = [
    "random_query",
    "query_set",
    "selectivity_order",
    "selectivity_scores",
    "rank_of",
    "QFEntry",
    "QFList",
    "NO_FATHER",
    "resort",
    "validate_qflist",
]
