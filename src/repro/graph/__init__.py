"""Graph substrate: labeled graphs, query graphs, builders, I/O, statistics."""

from repro.graph.builder import GraphBuilder, relabel
from repro.graph.labeled_graph import (
    Edge,
    Label,
    LabeledGraph,
    MutationSummary,
)
from repro.graph.query_graph import QueryGraph
from repro.graph.statistics import (
    compute_statistics,
    degree_histogram,
    label_histogram,
    label_skew,
)
from repro.graph.validation import (
    embeddings_distinct,
    embeddings_pairwise_disjoint,
    is_valid_embedding,
    validate_embedding,
)

__all__ = [
    "Edge",
    "Label",
    "LabeledGraph",
    "MutationSummary",
    "QueryGraph",
    "GraphBuilder",
    "relabel",
    "compute_statistics",
    "degree_histogram",
    "label_histogram",
    "label_skew",
    "validate_embedding",
    "is_valid_embedding",
    "embeddings_distinct",
    "embeddings_pairwise_disjoint",
]
