"""Graph substrate: labeled graphs, query graphs, builders, I/O, statistics."""

from repro.graph.builder import GraphBuilder, relabel
from repro.graph.interop import (
    from_networkx,
    query_from_networkx,
    to_networkx,
    translate_embedding,
)
from repro.graph.labeled_graph import (
    DEFAULT_COMPACTION_THRESHOLD,
    Edge,
    Label,
    LabeledGraph,
    MutationSummary,
)
from repro.graph.query_graph import QueryGraph
from repro.graph.statistics import (
    GraphStatistics,
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
    "DEFAULT_COMPACTION_THRESHOLD",
    "QueryGraph",
    "GraphBuilder",
    "relabel",
    "from_networkx",
    "query_from_networkx",
    "to_networkx",
    "translate_embedding",
    "GraphStatistics",
    "compute_statistics",
    "degree_histogram",
    "label_histogram",
    "label_skew",
    "validate_embedding",
    "is_valid_embedding",
    "embeddings_distinct",
    "embeddings_pairwise_disjoint",
]
