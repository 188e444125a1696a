"""NetworkX interoperability.

Most Python graph users hold their data in :mod:`networkx`; these
converters bridge it to the library's :class:`LabeledGraph`/:class:`QueryGraph`
representation and back.

Conventions:

* vertex labels live in a node attribute (default ``"label"``); nodes
  missing the attribute get ``default_label`` (or raise if none given);
* arbitrary (hashable) node identifiers are densified to ``0..n-1`` in
  sorted-by-insertion order; the mapping is returned so embeddings can be
  translated back to original identifiers;
* multi-edges collapse and self-loops are dropped (the data model is a
  simple graph), with an optional strict mode that raises instead.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from repro.exceptions import GraphError
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.query_graph import QueryGraph


def from_networkx(
    graph: "nx.Graph",
    label_attribute: str = "label",
    default_label: Optional[Label] = None,
    strict: bool = False,
    name: str = "",
) -> Tuple[LabeledGraph, Dict[Hashable, int]]:
    """Convert an undirected networkx graph to a :class:`LabeledGraph`.

    Returns ``(labeled_graph, node_to_id)`` where ``node_to_id`` maps the
    original networkx node identifiers to the dense vertex ids.

    Raises :class:`~repro.exceptions.GraphError` for directed graphs, for
    unlabeled nodes without a ``default_label``, and — in strict mode — for
    self-loops.
    """
    if graph.is_directed():
        raise GraphError("data graphs are undirected; convert with .to_undirected() first")
    node_to_id: Dict[Hashable, int] = {}
    labels = []
    for node, data in graph.nodes(data=True):
        label = data.get(label_attribute, default_label)
        if label is None:
            raise GraphError(
                f"node {node!r} has no {label_attribute!r} attribute and no "
                "default_label was given"
            )
        node_to_id[node] = len(labels)
        labels.append(label)
    edges = []
    for u, v in graph.edges():
        if u == v:
            if strict:
                raise GraphError(f"self-loop at {u!r} not representable")
            continue
        edges.append((node_to_id[u], node_to_id[v]))
    return LabeledGraph(labels, edges, name=name or str(graph.name or "")), node_to_id


def query_from_networkx(
    graph: "nx.Graph",
    label_attribute: str = "label",
    name: str = "",
) -> Tuple[QueryGraph, Dict[Hashable, int]]:
    """Convert a networkx graph to a validated :class:`QueryGraph`."""
    labeled, node_to_id = from_networkx(
        graph, label_attribute=label_attribute, strict=True, name=name
    )
    return QueryGraph.from_graph(labeled, name=name), node_to_id


def to_networkx(
    graph: LabeledGraph,
    label_attribute: str = "label",
) -> "nx.Graph":
    """Convert a :class:`LabeledGraph` to a networkx graph.

    Vertex ids become node identifiers; labels land in ``label_attribute``.
    """
    out = nx.Graph(name=graph.name)
    for v in graph.vertices():
        out.add_node(v, **{label_attribute: graph.label(v)})
    out.add_edges_from(graph.edges())
    return out


def translate_embedding(
    mapping: Tuple[int, ...],
    node_to_id: Dict[Hashable, int],
) -> Tuple[Hashable, ...]:
    """Translate an embedding back to original networkx node identifiers."""
    id_to_node = {i: node for node, i in node_to_id.items()}
    return tuple(id_to_node[v] for v in mapping)
