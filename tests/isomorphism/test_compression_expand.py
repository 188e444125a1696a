"""The limit contract of ``enumerate_embeddings``, the join-mask identity the
compressed join relies on, and split repair.

``enumerate_embeddings(limit=n)`` is the first ``n`` embeddings of the
engine's full stream: ``limit <= 0`` returns ``[]`` and a limit at or past
the total returns everything. ``CompressedGraph.class_join_mask`` answers
"is ``v`` adjacent to ``a``" for every ``v != a`` with one bit test on
``v``'s class — before and after :meth:`CompressedGraph.apply_delta` — which
is what the level engine's compressed ``_fold_join`` reads in place of
per-vertex adjacency masks.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.plans import compile_plan
from repro.isomorphism.compression import CompressedGraph
from repro.isomorphism.qsearch import QSearchEngine, enumerate_embeddings
from tests.property.test_compression_equivalence import casting_instance


def hub_and_leaves(num_leaves: int = 3):
    """One ``a`` hub, ``num_leaves`` interchangeable ``b`` leaves."""
    labels = ["a"] + ["b"] * num_leaves
    edges = [(0, v) for v in range(1, num_leaves + 1)]
    graph = LabeledGraph(labels, edges)
    comp = CompressedGraph(graph)
    return graph, comp


def join_mask_offenders(graph, comp):
    """Vertices ``a`` whose class join mask, expanded to the members of the
    classes it sets (``a`` itself left out), is not ``N(a)``."""
    offenders = []
    for a in graph.vertices():
        mask, members = comp.class_join_mask(comp.class_of[a]), set()
        while mask:
            low = mask & -mask
            members.update(comp.classes[low.bit_length() - 1])
            mask ^= low
        members.discard(a)
        if members != graph.neighbor_set(a):
            offenders.append(a)
    return offenders


class TestExpandLimit:
    """Hub plus three leaves, one edge: three embeddings."""

    def setup_method(self):
        self.graph, _ = hub_and_leaves(3)
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
        self.graph, _ = hub_and_leaves(4)
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
    equivalence suite's casting graph and ``teams`` (the only one with clique
    classes), each with its cached partition."""
    graphs = [make_dataset("imdb", scale=0.002, seed=7), casting_instance()[0], teams()]
    return [(graph, graph.index_cache().compressed()) for graph in graphs]


class TestLazyExpansion:
    """The identity ``_fold_join``'s compressed branch rests on: for every
    ``v != a``, bit ``class_of[v]`` of ``class_join_mask(class_of[a])`` is set
    iff ``v`` is adjacent to ``a``."""

    def test_counter_pays_per_pull(self):
        # A partition as built.
        for graph, comp in twin_rich_stand_ins():
            assert comp.compression_ratio() < 0.6
            assert not join_mask_offenders(graph, comp)

    def test_lazy_matches_eager(self):
        # The same partition after split repairs: toggling edges between
        # members of shared classes detaches both endpoints.
        rng = random.Random(5)
        for graph, comp in twin_rich_stand_ins():
            shared = [members for members in comp.classes if len(members) > 1]
            for members in rng.sample(shared, 12):
                u, v = rng.sample(members, 2)
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                else:
                    graph.add_edge(u, v)
            assert graph.index_cache().compressed() is comp and comp.split_repairs >= 12
            assert not join_mask_offenders(graph, comp)


class TestApplyDelta:
    def test_add_vertex_appends_singleton(self):
        graph, comp = hub_and_leaves(3)
        n = graph.num_vertices
        assert comp.apply_delta([("add_vertex", n, "b")]) == 0
        assert comp.classes[-1] == (n,)
        assert comp.class_of[n] == comp.num_classes - 1
        assert not comp.clique[-1]

    def test_add_vertex_out_of_order_raises(self):
        graph, comp = hub_and_leaves(3)
        with pytest.raises(ValueError):
            comp.apply_delta([("add_vertex", graph.num_vertices + 1, "b")])

    def test_unknown_op_raises(self):
        _, comp = hub_and_leaves(3)
        with pytest.raises(ValueError):
            comp.apply_delta([("recolor", 0, "z")])

    def test_edge_delta_splits_both_shared_endpoints(self):
        graph, comp = hub_and_leaves(4)
        leaf_cid = comp.class_of[1]
        assert comp.size(leaf_cid) == 4
        before_classes = comp.num_classes
        assert graph.add_edge(1, 2)
        splits = comp.apply_delta([("add_edge", 1, 2)])
        assert splits == 2
        assert comp.split_repairs == 2
        # Old class shrank in place; ids are append-only stable.
        assert comp.classes[leaf_cid] == (3, 4)
        assert comp.num_classes == before_classes + 2
        assert comp.class_of[1] != comp.class_of[2] != leaf_cid
        assert comp.classes[comp.class_of[1]] == (1,)
        assert comp.classes[comp.class_of[2]] == (2,)

    def test_singleton_endpoint_counts_no_split(self):
        graph, comp = hub_and_leaves(2)
        hub_cid = comp.class_of[0]
        assert comp.size(hub_cid) == 1
        assert graph.remove_edge(0, 1)
        splits = comp.apply_delta([("remove_edge", 0, 1)])
        # Leaf 1 splits out of the leaf pair; the hub was already alone.
        assert splits == 1

    def test_memoized_views_are_invalidated(self):
        graph, comp = hub_and_leaves(3)
        hub_cid = comp.class_of[0]
        leaf_cid = comp.class_of[1]
        # Memoize pre-delta views.
        assert leaf_cid in comp.neighbors(hub_cid)
        assert (comp.class_join_mask(hub_cid) >> leaf_cid) & 1
        assert graph.remove_edge(0, 1)
        comp.apply_delta([("remove_edge", 0, 1)])
        # Vertex 1 sits alone in a new class that the hub no longer joins.
        new_cid = comp.class_of[1]
        assert new_cid != leaf_cid
        assert new_cid not in comp.neighbors(comp.class_of[0])
        assert not (comp.class_join_mask(comp.class_of[0]) >> new_cid) & 1
        # And every rebuilt mask agrees with the live topology.
        assert not join_mask_offenders(graph, comp)

    def test_empty_delta_is_noop(self):
        _, comp = hub_and_leaves(3)
        comp.neighbors(comp.class_of[0])
        assert comp.apply_delta([]) == 0
        assert comp._adjacency  # memo untouched: nothing was dirtied
