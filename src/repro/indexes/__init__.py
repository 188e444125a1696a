"""Filtering indexes: label index, degree/NS filters, candidate sets."""

from repro.indexes.candidates import CandidateIndex
from repro.indexes.graph_cache import GraphIndexCache
from repro.indexes.plans import PlanCache, QueryPlan, compile_plan, expand_pool

__all__ = [
    "CandidateIndex",
    "GraphIndexCache",
    "PlanCache",
    "QueryPlan",
    "compile_plan",
    "expand_pool",
]
