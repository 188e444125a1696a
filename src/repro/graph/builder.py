"""Incremental construction of :class:`~repro.graph.labeled_graph.LabeledGraph`.

:class:`GraphBuilder` is an accumulator for generators: vertices and edges
whose final number is not known up front, and labels that may still change
(:meth:`GraphBuilder.set_label`), are collected here and handed to the
:class:`LabeledGraph` constructor in one piece by :meth:`GraphBuilder.build`.
The graph it returns is an ordinary one — it can be written to afterwards
(``docs/mutation.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.labeled_graph import Label, LabeledGraph, check_edge


class GraphBuilder:
    """Mutable accumulator that produces a :class:`LabeledGraph`.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> a = b.add_vertex("person")
    >>> c = b.add_vertex("movie")
    >>> b.add_edge(a, c)
    >>> g = b.build(name="tiny")
    >>> g.num_vertices, g.num_edges
    (2, 1)
    """

    def __init__(self) -> None:
        self._labels: List[Label] = []
        self._edges: Set[Tuple[int, int]] = set()

    @property
    def num_vertices(self) -> int:
        """Vertices added so far."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Distinct edges added so far."""
        return len(self._edges)

    def add_vertex(self, label: Label) -> int:
        """Append a vertex with ``label`` and return its new id."""
        self._labels.append(label)
        return len(self._labels) - 1

    def add_vertices(self, labels: Iterable[Label]) -> List[int]:
        """Append several vertices; returns their ids in order."""
        return [self.add_vertex(lab) for lab in labels]

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``(u, v)``.

        Adding an existing edge is a no-op; self-loops and references to
        unknown vertices raise :class:`~repro.exceptions.GraphError`.
        """
        check_edge(len(self._labels), u, v)
        self._edges.add((u, v) if u < v else (v, u))

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add many undirected edges."""
        for u, v in edges:
            self.add_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` has been added."""
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def set_label(self, v: int, label: Label) -> None:
        """Re-label an existing vertex (used by label-density experiments)."""
        if not (0 <= v < len(self._labels)):
            raise GraphError(f"vertex {v} outside [0, {len(self._labels)})")
        self._labels[v] = label

    def build(self, name: str = "") -> LabeledGraph:
        """The accumulated structure as a :class:`LabeledGraph`. Labels and
        edges go to the constructor as they are: it copies the labels and
        orders the rows itself."""
        return LabeledGraph(self._labels, self._edges, name=name)


def relabel(graph: LabeledGraph, labels: Iterable[Label], name: str = "") -> LabeledGraph:
    """A copy of ``graph`` with a new label table but identical topology.

    Used by the label-density experiment (Figure 7): the same synthetic
    topology is re-labelled at several label-set sizes.
    """
    label_list = list(labels)
    if len(label_list) != graph.num_vertices:
        raise GraphError(
            f"label table has {len(label_list)} entries for {graph.num_vertices} vertices"
        )
    return LabeledGraph(label_list, graph.edges(), name=name or graph.name)


def merge_vertex_maps(maps: Iterable[Dict[int, int]]) -> Dict[int, int]:
    """Union several disjoint vertex-id maps (helper for dataset composition)."""
    merged: Dict[int, int] = {}
    for m in maps:
        overlap = merged.keys() & m.keys()
        if overlap:
            raise GraphError(f"vertex maps overlap on ids {sorted(overlap)[:5]}")
        merged.update(m)
    return merged
