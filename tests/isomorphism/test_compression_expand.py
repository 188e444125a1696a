"""The limit contract of ``enumerate_embeddings``, and what the twin-class
partition's join identity and split repair became.

``enumerate_embeddings(limit=n)`` is the first ``n`` embeddings of the
engine's full stream: ``limit <= 0`` returns ``[]`` and a limit at or past
the total returns everything. The level engine joins a frame on its matched
vertices' neighbor sets, which answer "is ``v`` adjacent to ``a``" for
interchangeable (twin) vertices as for any other, and a write repairs the
graph's index cache in place (:meth:`GraphIndexCache.apply_delta`); both
are checked here on the twin-rich fixtures the partition was tested on.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.datasets.registry import make_dataset
from repro.exceptions import GraphError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.indexes.plans import compile_plan
from repro.isomorphism.qsearch import QSearchEngine, enumerate_embeddings
from tests.indexes.test_delta_repair import assert_cache_equivalent
from tests.isomorphism.test_compression import open_twin_ratio
from tests.property.test_compression_equivalence import casting_instance


def hub_and_leaves(num_leaves: int = 3) -> LabeledGraph:
    """One ``a`` hub, ``num_leaves`` interchangeable ``b`` leaves."""
    labels = ["a"] + ["b"] * num_leaves
    edges = [(0, v) for v in range(1, num_leaves + 1)]
    return LabeledGraph(labels, edges)


def join_offenders(graph, rng, pairs: int = 300):
    """Sampled vertex pairs ``(a, b)`` whose neighbor-set intersection — the
    level engine's two-set join — is not the vertices adjacent to both."""
    n = graph.num_vertices
    offenders = []
    for _ in range(pairs):
        a, b = rng.randrange(n), rng.randrange(n)
        joined = set(graph.vertices()).intersection(graph.neighbor_set(a), graph.neighbor_set(b))
        want = {v for v in graph.vertices() if graph.has_edge(v, a) and graph.has_edge(v, b)}
        if joined != want:
            offenders.append((a, b))
    return offenders


def assert_repaired(graph):
    """The graph's cache, repaired in place, answers as a fresh build does."""
    assert_cache_equivalent(graph.index_cache(), GraphIndexCache(graph))


class TestExpandLimit:
    """Hub plus three leaves, one edge: three embeddings."""

    def setup_method(self):
        self.graph = hub_and_leaves(3)
        self.query = QueryGraph(["a", "b"], [(0, 1)])
        self.full = list(QSearchEngine(self.graph, self.query).embeddings())
        assert len(self.full) == 3

    def expand(self, limit):
        return enumerate_embeddings(self.graph, self.query, limit=limit)

    def test_no_limit_yields_all_and_reports_unlimited(self):
        assert self.expand(None) == self.full
        assert len(set(self.full)) == 3

    def test_zero_limit_appends_nothing_and_reports_limited(self):
        assert self.expand(0) == []

    def test_negative_limit_appends_nothing_and_reports_limited(self):
        assert self.expand(-2) == []

    def test_mid_product_truncation_is_exact(self):
        assert self.expand(2) == self.full[:2]

    def test_limit_at_total_reports_limited(self):
        assert self.expand(3) == self.full

    def test_limit_beyond_total_reports_unlimited(self):
        assert self.expand(5) == self.full

    def test_prefilled_out_at_limit_is_untouched(self):
        # A stream abandoned at a limit leaves nothing behind: the same
        # engine's next stream starts from the first embedding.
        engine = QSearchEngine(self.graph, self.query)
        assert list(islice(engine.embeddings(), 2)) == self.full[:2]
        assert list(engine.embeddings()) == self.full

    def test_prefilled_out_below_limit_tops_up_exactly(self):
        # Raising the limit extends the answer; it never reorders it.
        for smaller, larger in ((1, 2), (1, 3), (2, 3)):
            assert self.expand(larger)[:smaller] == self.expand(smaller)

    def test_multi_node_class_draws_ordered_distinct_members(self):
        # Two query nodes on the leaves: ordered pairs of distinct leaves,
        # 3 * 2 = 6, never the same vertex twice, under any limit.
        query = QueryGraph(["b", "a", "b"], [(0, 1), (1, 2)])
        full = enumerate_embeddings(self.graph, query)
        assert len(full) == len(set(full)) == 6
        assert all(m[0] != m[2] for m in full)
        for limit in range(7):
            assert enumerate_embeddings(self.graph, query, limit=limit) == full[:limit]


class TestEnumerateLimit:
    def setup_method(self):
        self.graph = hub_and_leaves(4)
        self.query = QueryGraph(["b", "a", "b"], [(0, 1), (1, 2)])

    def test_limit_zero_and_negative_return_empty(self):
        assert enumerate_embeddings(self.graph, self.query, limit=0) == []
        assert enumerate_embeddings(self.graph, self.query, limit=-1) == []

    def test_limit_truncates_to_exactly_limit(self):
        full = enumerate_embeddings(self.graph, self.query)
        assert len(full) == 12  # 4 * 3 ordered leaf pairs
        for limit in (1, 5, 11, 12, 13, 50):
            assert enumerate_embeddings(self.graph, self.query, limit=limit) == full[:limit]

    def test_matches_plain_engine_set(self):
        full = enumerate_embeddings(self.graph, self.query)
        plan = compile_plan(self.query, self.graph.index_cache())
        assert list(QSearchEngine(self.graph, self.query, plan=plan).embeddings()) == full
        assert len(set(full)) == len(full) == 12


def teams(count: int = 15, size: int = 3) -> LabeledGraph:
    """``count`` hubs, each with ``size`` mutually adjacent members: every
    team's members are true twins, a clique class."""
    labels, edges = [], []
    for _ in range(count):
        hub = len(labels)
        members = range(hub + 1, hub + 1 + size)
        labels += ["T"] + ["P"] * size
        edges += [(hub, v) for v in members]
        edges += [(v, w) for v in members for w in members if v < w]
    return LabeledGraph(labels, edges)


def twin_rich_stand_ins():
    """The imdb stand-in (the registry's one twin-rich dataset), the
    equivalence suite's casting graph and ``teams`` (clique twins)."""
    return [make_dataset("imdb", scale=0.002, seed=7), casting_instance()[0], teams()]


class TestLazyExpansion:
    """The identity the compressed join rested on is the plain join's: a
    neighbor-set intersection is adjacency to every matched vertex, twins
    included, as built and after writes between twins."""

    def test_counter_pays_per_pull(self):
        # As built.
        rng = random.Random(3)
        for graph in twin_rich_stand_ins()[:2]:
            assert open_twin_ratio(graph) < 0.6
            assert not join_offenders(graph, rng)

    def test_lazy_matches_eager(self):
        # After toggling edges between interchangeable vertices: the join
        # still reads adjacency, and the cache is repaired, not rebuilt.
        rng = random.Random(5)
        for graph in twin_rich_stand_ins():
            cache = graph.index_cache()
            compile_plan(QueryGraph([graph.label(0)]), cache)  # warm a pool
            groups = {}  # open twins share N(v), clique twins N(v) | {v}
            for v in graph.vertices():
                row = graph.neighbor_set(v)
                for key in (frozenset(row), frozenset(row | {v})):
                    groups.setdefault((graph.label(v), key), []).append(v)
            shared = [members for members in groups.values() if len(members) > 1]
            for members in rng.sample(shared, min(12, len(shared))):
                u, v = rng.sample(members, 2)
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                else:
                    graph.add_edge(u, v)
            assert graph.index_cache() is cache and cache.delta_seq >= 1
            assert not join_offenders(graph, rng)
            assert_repaired(graph)


class TestApplyDelta:
    """A write to the hub fixture is repaired in the graph's index cache."""

    def test_add_vertex_appends_singleton(self):
        graph = hub_and_leaves(3)
        graph.index_cache()
        n = graph.num_vertices
        assert graph.add_vertex("b") == n
        # The new leaf is a candidate, but joins no hub until an edge lands.
        assert enumerate_embeddings(graph, QueryGraph(["b"])) == [(v,) for v in range(1, n + 1)]
        assert len(enumerate_embeddings(graph, QueryGraph(["a", "b"], [(0, 1)]))) == 3
        assert_repaired(graph)

    def test_add_vertex_out_of_order_raises(self):
        # A batch is validated whole: an edge to a vertex the batch has not
        # added yet leaves the graph and its cache untouched.
        graph = hub_and_leaves(3)
        version = graph.index_cache().version
        with pytest.raises(GraphError):
            graph.mutate([("add_edge", 0, graph.num_vertices), ("add_vertex", "b")])
        assert graph.num_vertices == 4 and graph.index_cache().version == version

    def test_unknown_op_raises(self):
        graph = hub_and_leaves(3)
        version = graph.index_cache().version
        with pytest.raises(GraphError):
            graph.mutate([("recolor", 0, "z")])
        assert graph.index_cache().version == version

    def test_edge_delta_splits_both_shared_endpoints(self):
        # Two leaves joined by an edge are no longer interchangeable with
        # the others: a leaf pair now has one edge to match.
        graph = hub_and_leaves(4)
        pair = QueryGraph(["b", "b"], [(0, 1)])
        assert enumerate_embeddings(graph, pair) == []
        assert graph.add_edge(1, 2)
        assert enumerate_embeddings(graph, pair) == [(1, 2), (2, 1)]
        triangle = QueryGraph(["a", "b", "b"], [(0, 1), (1, 2), (0, 2)])
        assert enumerate_embeddings(graph, triangle) == [(0, 1, 2), (0, 2, 1)]
        assert_repaired(graph)

    def test_singleton_endpoint_counts_no_split(self):
        graph = hub_and_leaves(2)
        star = QueryGraph(["a", "b"], [(0, 1)])
        assert enumerate_embeddings(graph, star) == [(0, 1), (0, 2)]
        assert graph.remove_edge(0, 1)
        # Leaf 1 leaves the hub's answers; the hub keeps leaf 2.
        assert enumerate_embeddings(graph, star) == [(0, 2)]
        assert_repaired(graph)

    def test_memoized_views_are_invalidated(self):
        graph = hub_and_leaves(3)
        query = QueryGraph(["b", "a", "b"], [(0, 1), (1, 2)])
        # Memoize pools, views and the hub's localized list.
        assert len(enumerate_embeddings(graph, query)) == 6
        assert graph.remove_edge(0, 1)
        # Vertex 1 is in no answer now, and every kept list agrees.
        assert enumerate_embeddings(graph, query) == [(2, 0, 3), (3, 0, 2)]
        assert_repaired(graph)

    def test_empty_delta_is_noop(self):
        graph = hub_and_leaves(3)
        cache = graph.index_cache()
        compile_plan(QueryGraph(["a", "b"], [(0, 1)]), cache)
        memo, version = dict(cache._pool_memo), cache.version
        assert graph.mutate([]).applied == 0
        assert cache.version == version and dict(cache._pool_memo) == memo
