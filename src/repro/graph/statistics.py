"""Structural statistics of labeled graphs.

Used in two places:

* dataset generators assert that a synthetic stand-in actually matches the
  published statistics of the real graph it replaces (Table 1 of the paper);
* the experiment reports print the dataset header rows the paper tabulates
  (|V|, |E|, |Sigma|, average degree).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable

from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics mirroring Table 1 of the paper.

    Attributes
    ----------
    num_vertices, num_edges:
        ``|V|`` and ``|E|``.
    num_labels:
        ``|Sigma|`` — number of *distinct labels in use*.
    average_degree:
        ``2|E| / |V|``.
    max_degree:
        Largest vertex degree.
    label_density:
        ``|Sigma| / |V|`` — the x-axis of the Figure 7 experiment.
    """

    num_vertices: int
    num_edges: int
    num_labels: int
    average_degree: float
    max_degree: int
    label_density: float

    def row(self) -> str:
        """One formatted table row (name columns are added by the caller)."""
        return (
            f"{self.num_vertices:>9d} {self.num_edges:>10d} {self.num_labels:>6d} "
            f"{self.average_degree:>8.2f}"
        )


def compute_statistics(graph: LabeledGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph``."""
    n = graph.num_vertices
    num_labels = len(graph.label_set())
    return GraphStatistics(
        num_vertices=n,
        num_edges=graph.num_edges,
        num_labels=num_labels,
        average_degree=graph.average_degree(),
        max_degree=max(graph.degree_sequence(), default=0),
        label_density=(num_labels / n) if n else 0.0,
    )


def label_histogram(graph: LabeledGraph) -> Dict[Hashable, int]:
    """Count of vertices per label, most frequent first."""
    counts = Counter(graph.labels)
    return dict(counts.most_common())


def label_skew(graph: LabeledGraph, top: int = 3) -> float:
    """Fraction of vertices carried by the ``top`` most frequent labels.

    The paper notes IMDB has ~90% of its vertices under 3 labels
    (actor/actress/director); this metric verifies our IMDB stand-in
    reproduces that skew.
    """
    n = graph.num_vertices
    if n == 0:
        return 0.0
    counts = Counter(graph.labels).most_common(top)
    return sum(c for _, c in counts) / n


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Count of vertices per degree value, ascending by degree."""
    counts = Counter(graph.degree_sequence())
    return dict(sorted(counts.items()))
