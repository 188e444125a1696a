"""Query graphs for (diversified) subgraph querying.

A query graph (Section 2) is a small, connected, undirected, vertex-labeled
graph ``Q``. :class:`QueryGraph` reuses the :class:`LabeledGraph`
representation and adds the validation DSQL depends on:

* non-empty — an empty query has no embeddings and no well-defined level loop;
* connected — the ``qfList`` father-node construction (Section 5.1) assigns
  every node a father reachable through earlier nodes, which requires a
  connected query.

Following the paper's terminology, vertices of ``Q`` are called **nodes** and
vertices of the data graph are called **vertices**.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.exceptions import InvalidQueryError, QueryError
from repro.graph.labeled_graph import Edge, Label, LabeledGraph


def _refuses(method: str):
    """``QueryGraph.<method>``: raises instead of writing."""

    def refuse(self, *args, **kwargs):
        raise QueryError(
            f"a query graph is a value: {method}() is not supported "
            "(build a new QueryGraph instead)"
        )

    refuse.__name__ = method
    return refuse


class QueryGraph(LabeledGraph):
    """A connected, non-empty, vertex-labeled query graph.

    Parameters mirror :class:`LabeledGraph`. ``q = |Q|`` is exposed as
    :attr:`size` since the paper's bounds are stated in terms of ``q``.

    A query is a value: the result memo and the plan cache key it by
    :meth:`canonical_key`, and the connectivity checked at construction is
    what the search order relies on, so the writers it would inherit
    (``add_vertex`` / ``add_edge`` / ``remove_edge`` / ``mutate``) raise
    :class:`~repro.exceptions.QueryError`.

    Examples
    --------
    The motivating team query of Figure 1(a): a project manager linked to a
    programmer and a database developer, who are linked to each other and
    both to a software tester.

    >>> q = QueryGraph(
    ...     ["a", "b", "c", "d"],
    ...     [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    ... )
    >>> q.size
    4
    """

    def __init__(
        self,
        labels: Sequence[Label],
        edges: Iterable[Edge] = (),
        name: str = "",
    ) -> None:
        super().__init__(labels, edges, name=name)
        if self.num_vertices == 0:
            raise QueryError("query graph must have at least one node")
        if not self.is_connected():
            components = self.connected_components()
            component = sorted(components[-1])
            raise InvalidQueryError(
                "query graph must be connected "
                f"(found {len(components)} components; nodes {component} "
                "are separated from node 0)",
                component=component,
            )

    add_vertex = _refuses("add_vertex")
    add_edge = _refuses("add_edge")
    remove_edge = _refuses("remove_edge")
    mutate = _refuses("mutate")

    @property
    def size(self) -> int:
        """``q = |V_Q|``, the number of query nodes."""
        return self.num_vertices

    def neighborhood_signature(self, u: int) -> FrozenSet[Label]:
        """``NS_Q(u)``: the labels adjacent to node ``u``, read off the
        query's own rows — a handful of nodes needs no index cache to say
        it (a compiled, estimated and answered query never builds one)."""
        return frozenset(map(self.label, self.neighbors(u)))

    @classmethod
    def from_graph(cls, graph: LabeledGraph, name: str = "") -> "QueryGraph":
        """Promote a plain :class:`LabeledGraph` to a validated query graph."""
        return cls(graph.labels, graph.edges(), name=name or graph.name)

    def edge_tuples(self) -> Tuple[Edge, ...]:
        """All edges as a deterministic sorted tuple (useful as a cache key)."""
        return tuple(sorted(self.edges()))

    def canonical_key(self) -> Tuple:
        """A hashable key identifying this query's labeled structure.

        Two queries with the same node count, label table, and edge set get
        equal keys. This is *not* a canonical form under isomorphism; it is a
        cheap identity for caching candidate sets per query object. Memoized
        (a query cannot be written to, see the class docstring): warm cache
        lookups — result memo and plan cache — cost one dict probe, not an
        edge sort.
        """
        key = getattr(self, "_canonical_key", None)
        if key is None:
            key = self._canonical_key = (tuple(self.labels), self.edge_tuples())
        return key
