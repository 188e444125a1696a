"""Serialization of labeled graphs.

Two formats are supported:

* **Labeled edge list** (``.lg``-style text) — the de-facto interchange format
  of the subgraph-matching literature (used by the datasets of [24] the paper
  evaluates on)::

      t <num_vertices> <num_edges>
      v <vertex_id> <label>
      ...
      e <u> <v>
      ...

* **JSON** — a self-describing object with ``labels`` and ``edges`` arrays,
  convenient for checked-in fixtures.

The edge-list parser checks vertex-id density itself; edge endpoints are
validated where every edge is, in the :class:`LabeledGraph` constructor.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple, Union

from repro.exceptions import GraphError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph

PathLike = Union[str, Path]


def dump_edge_list(graph: LabeledGraph, path: PathLike) -> None:
    """Write ``graph`` in labeled-edge-list text format."""
    lines: List[str] = [f"t {graph.num_vertices} {graph.num_edges}"]
    for v in graph.vertices():
        lines.append(f"v {v} {graph.label(v)}")
    for u, v in sorted(graph.edges()):
        lines.append(f"e {u} {v}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_edge_list(path: PathLike, name: str = "") -> LabeledGraph:
    """Parse a labeled-edge-list file into a :class:`LabeledGraph`.

    Labels are kept as strings; convert downstream if integer labels are
    needed. Lines that are blank or start with ``#`` are ignored.
    """
    labels: dict[int, str] = {}
    edges: List[Tuple[int, int]] = []
    declared_vertices = declared_edges = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: malformed header {line!r}")
            declared_vertices, declared_edges = int(parts[1]), int(parts[2])
        elif kind == "v":
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: malformed vertex line {line!r}")
            labels[int(parts[1])] = parts[2]
        elif kind == "e":
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: malformed edge line {line!r}")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"{path}:{lineno}: unknown record kind {kind!r}")
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise GraphError(f"{path}: vertex ids must be dense 0..{n - 1}")
    if declared_vertices is not None and declared_vertices != n:
        raise GraphError(f"{path}: header declares {declared_vertices} vertices, found {n}")
    graph = LabeledGraph([labels[v] for v in range(n)], edges, name=name or Path(path).stem)
    if declared_edges is not None and declared_edges != graph.num_edges:
        raise GraphError(
            f"{path}: header declares {declared_edges} edges, found {graph.num_edges}"
        )
    return graph


def dump_json(graph: LabeledGraph, path: PathLike) -> None:
    """Write ``graph`` as a JSON object with ``labels`` and ``edges``."""
    payload = {
        "name": graph.name,
        "labels": list(graph.labels),
        "edges": sorted(graph.edges()),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_json(path: PathLike) -> LabeledGraph:
    """Load a graph previously written by :func:`dump_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        labels = payload["labels"]
        edges = [tuple(e) for e in payload["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"{path}: not a graph JSON object: {exc}") from exc
    return LabeledGraph(labels, edges, name=payload.get("name", Path(path).stem))


def load_query(path: PathLike) -> QueryGraph:
    """Load a file in either format as a validated :class:`QueryGraph`."""
    path = Path(path)
    graph = load_json(path) if path.suffix == ".json" else load_edge_list(path)
    return QueryGraph.from_graph(graph)
