"""Subgraph-isomorphism substrate: Algorithm-1 engine and embedding helpers."""

from repro.isomorphism.joinable import UNMATCHED, is_joinable, joinable_ignoring_injectivity
from repro.isomorphism.match import Mapping, distinct_by_vertex_set
from repro.isomorphism.qsearch import (
    QSearchEngine,
    connected_search_order,
    count_embeddings,
    enumerate_embeddings,
)

__all__ = [
    "UNMATCHED",
    "is_joinable",
    "joinable_ignoring_injectivity",
    "Mapping",
    "distinct_by_vertex_set",
    "QSearchEngine",
    "connected_search_order",
    "enumerate_embeddings",
    "count_embeddings",
]
