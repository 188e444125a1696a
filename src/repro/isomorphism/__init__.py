"""Subgraph-isomorphism substrate: Algorithm-1 engine and embedding helpers."""

from repro.isomorphism.joinable import UNMATCHED, is_joinable, joinable_ignoring_injectivity
from repro.isomorphism.match import (
    Mapping,
    distinct_by_vertex_set,
    induced_match_subgraph,
    matched_edges,
    vertex_set,
)
from repro.isomorphism.compression import CompressedGraph
from repro.isomorphism.qsearch import (
    QSearchEngine,
    connected_search_order,
    count_embeddings,
    enumerate_embeddings,
    enumerate_embeddings_optimized,
    first_k_embeddings,
    has_embedding,
)

__all__ = [
    "UNMATCHED",
    "is_joinable",
    "joinable_ignoring_injectivity",
    "Mapping",
    "vertex_set",
    "matched_edges",
    "induced_match_subgraph",
    "distinct_by_vertex_set",
    "QSearchEngine",
    "CompressedGraph",
    "enumerate_embeddings_optimized",
    "connected_search_order",
    "enumerate_embeddings",
    "count_embeddings",
    "first_k_embeddings",
    "has_embedding",
]
