"""Unit tests for :mod:`repro.coverage.objectives` + the divergence packs."""

from __future__ import annotations

import random

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.coverage.objectives import (
    OBJECTIVE_NAMES,
    VERTEX,
    EdgeCoverage,
    build_weight_profile,
    make_objective,
)
from repro.datasets.paper_figures import objective_packs
from repro.datasets.registry import make_dataset
from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.queries.generator import query_set


@pytest.fixture()
def triangle_query():
    return QueryGraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture()
def path_graph():
    # 0-1-2-3 path; degrees 1, 2, 2, 1.
    return LabeledGraph(["a", "b", "a", "b"], [(0, 1), (1, 2), (2, 3)])


class TestRegistry:
    def test_names(self):
        assert OBJECTIVE_NAMES == ("vertex", "edge", "weighted-vertex")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown objective"):
            make_objective("treewidth")

    def test_make_each_name(self, triangle_query, path_graph):
        for name in OBJECTIVE_NAMES:
            obj = make_objective(name, query=triangle_query, graph=path_graph)
            assert obj.name == name

    def test_edge_requires_query(self):
        with pytest.raises(ConfigError, match="query"):
            make_objective("edge")

    def test_weighted_requires_graph_or_profile(self, triangle_query):
        with pytest.raises(ConfigError, match="data graph"):
            make_objective("weighted-vertex", query=triangle_query)


class TestVertexCoverage:
    def test_elements_is_vertex_set(self):
        assert VERTEX.elements((3, 1, 4)) == frozenset({1, 3, 4})

    def test_elements_frozenset_passthrough(self):
        s = frozenset({1, 2})
        assert VERTEX.elements(s) is s

    def test_flags(self):
        assert VERTEX.unit_weights
        assert VERTEX.vertex_elements
        assert VERTEX.certifies_disjoint_optimal
        assert VERTEX.certifies_exhausted_optimal

    def test_bound_objective(self, triangle_query):
        obj = make_objective("vertex", query=triangle_query)
        assert obj.max_coverage(5) == 15
        assert obj.future_benefit_bound(1, True) == 2
        assert obj.future_benefit_bound(1, False) is None

    def test_unbound_dispatch_raises(self):
        with pytest.raises(ConfigError, match="not bound"):
            VERTEX.max_coverage(5)

    def test_collection_coverage_counts_distinct(self):
        assert VERTEX.collection_coverage([(1, 2, 3), (3, 4, 5)]) == 5


class TestEdgeCoverage:
    def test_elements_are_normalized_data_edges(self, triangle_query):
        obj = EdgeCoverage(triangle_query)
        # Mapping a->9, b->2, c->5 covers the three matched data edges.
        assert obj.elements((9, 2, 5)) == frozenset({(2, 9), (5, 9), (2, 5)})

    def test_per_embedding_count_is_query_edges(self, triangle_query):
        obj = EdgeCoverage(triangle_query)
        assert len(obj.elements((9, 2, 5))) == len(list(triangle_query.edges()))

    def test_vertex_set_input_rejected(self, triangle_query):
        obj = EdgeCoverage(triangle_query)
        with pytest.raises(TypeError, match="vertex set"):
            obj.elements(frozenset({9, 2, 5}))

    def test_flags_forfeit_exhausted(self, triangle_query):
        obj = EdgeCoverage(triangle_query)
        assert not obj.vertex_elements
        assert not obj.certifies_exhausted_optimal
        assert obj.certifies_disjoint_optimal
        assert obj.unit_weights

    def test_max_coverage_and_bound(self, triangle_query):
        obj = EdgeCoverage(triangle_query)
        assert obj.max_coverage(4) == 12
        # Unconditional Lemma-4 surrogate: any embedding adds <= |E(Q)|.
        assert obj.future_benefit_bound(0, False) == 3
        assert obj.future_benefit_bound(2, True) == 3

    def test_shared_vertices_distinct_edges(self, triangle_query):
        # Two triangles sharing one vertex still cover 6 distinct edges.
        obj = EdgeCoverage(triangle_query)
        cov = obj.collection_coverage([(0, 1, 2), (0, 3, 4)])
        assert cov == 6
        assert VERTEX.collection_coverage(
            [frozenset({0, 1, 2}), frozenset({0, 3, 4})]
        ) == 5


class TestWeightedVertexCoverage:
    def test_explicit_weights(self, path_graph, triangle_query):
        obj = make_objective(
            "weighted-vertex",
            query=triangle_query,
            graph=path_graph,
            vertex_weights=[(0, 10.0)],
        )
        assert obj.weight(0) == 10.0
        assert obj.weight(1) == 1  # unlisted vertices default to 1
        assert obj.measure({0, 1}) == 11.0

    def test_degree_derived_default(self, path_graph, triangle_query):
        obj = make_objective("weighted-vertex", query=triangle_query, graph=path_graph)
        assert obj.weight(0) == 1 + path_graph.degree(0) == 2
        assert obj.weight(1) == 1 + path_graph.degree(1) == 3

    def test_flags_forfeit_disjoint(self, path_graph, triangle_query):
        obj = make_objective("weighted-vertex", query=triangle_query, graph=path_graph)
        assert not obj.unit_weights
        assert obj.vertex_elements
        assert not obj.certifies_disjoint_optimal
        assert obj.certifies_exhausted_optimal

    def test_max_coverage_is_top_q_sum(self, path_graph):
        query = QueryGraph(["a", "b"], [(0, 1)])
        obj = make_objective("weighted-vertex", query=query, graph=path_graph)
        # Degree weights 2, 3, 3, 2; candS(a) = {0, 2}, candS(b) = {1, 3}.
        # Per node: (3 + 2) + (3 + 2); per union: the 8 heaviest of 4 vertices.
        # The graph-global ceiling this replaced said k * (3 + 3) = 24, more
        # than the whole graph weighs.
        assert obj.max_coverage(4) == 10
        assert obj.max_coverage(4) <= sum(1 + path_graph.degree(v) for v in range(4))
        # k = 1: one vertex per node (3 + 3) binds below the union's two heaviest.
        assert obj.max_coverage(1) == 6

    def test_per_union_ceiling_counts_a_vertex_once(self):
        # Both query nodes draw on the same two-vertex pool: per node says
        # 2 * (3 + 3), but the collection covers those two vertices once.
        graph = LabeledGraph(["a", "a", "b", "b"], [(0, 1), (0, 2), (1, 3)])
        query = QueryGraph(["a", "a"], [(0, 1)])
        obj = make_objective("weighted-vertex", query=query, graph=graph)
        assert obj.max_coverage(2) == 6

    def test_bound_needs_snapshot(self, path_graph):
        query = QueryGraph(["a", "b"], [(0, 1)])
        obj = make_objective("weighted-vertex", query=query, graph=path_graph)
        assert obj.future_benefit_bound(1, True) == (2 - 1) * 3
        assert obj.future_benefit_bound(1, False) is None
        # Per-node maxima that differ: candS(a) = {0} (weight 2), candS(b) =
        # {1} (weight 3), candS(c) = {2} (weight 4; 3 and 4 are there to give
        # it that degree). The bound is the q - j largest maxima, not
        # (q - j) * 4.
        graph = LabeledGraph(
            ["a", "b", "c", "c", "d"], [(0, 1), (1, 2), (2, 3), (2, 4)]
        )
        path = QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
        obj = make_objective("weighted-vertex", query=path, graph=graph)
        assert [obj.future_benefit_bound(j, True) for j in range(3)] == [9, 7, 4]
        assert obj.future_benefit_bound(0, False) is None

    def test_weight_table_validated(self, path_graph):
        with pytest.raises(ConfigError, match="vertex 99"):
            build_weight_profile(path_graph, [(99, 2.0)])


@pytest.fixture(scope="module")
def human():
    return make_dataset("human", scale=1.0, seed=0)


class TestWeightedCeilingOnARegistryGraph:
    def test_float_coverage_is_a_function_of_the_answer(self, human):
        """Under a float table the reported coverage used to be phase 2's
        running total (``11.7`` vs ``11.699999999999998`` on 53 of these 90):
        an ulp that a tight ceiling would read as ``ratio > 1``."""
        rng = random.Random(0)
        table = tuple(
            (v, rng.choice((0.1, 0.2, 0.3, 0.7, 1.1, 2.3))) for v in human.vertices()
        )
        swapped = 0
        for k in (5, 20, 40):
            config = DSQLConfig(
                k=k, node_budget=20_000, objective="weighted-vertex", vertex_weights=table
            )
            session = DSQL(human, config)
            for query in query_set(human, 5, 30, seed=11):
                result = session.query(query)
                objective = make_objective(
                    "weighted-vertex", query=query, graph=human, vertex_weights=table
                )
                assert result.coverage == objective.collection_coverage(result.embeddings)
                assert result.coverage <= result.coverage_bound == objective.max_coverage(k)
                swapped += bool(result.stats.phase2_swaps)
        assert swapped  # the running total was in play

    def test_ceiling_is_above_what_swapping_everywhere_reaches(self, human):
        for k in (5, 40):
            config = DSQLConfig(
                k=k, node_budget=20_000, objective="weighted-vertex", phase2_ratio_target=1.0
            )
            session = DSQL(human, config)
            for query in query_set(human, 6, 20, seed=7):
                result = session.query(query)
                assert result.coverage <= result.coverage_bound


def _run(pack, objective):
    config = DSQLConfig(
        k=pack.k,
        objective=objective,
        vertex_weights=pack.vertex_weights if objective == "weighted-vertex" else None,
    )
    return DSQL(pack.graph, config=config).query(pack.query)


class TestDivergencePacks:
    """The adversarial packs: each objective provably beats `vertex` on its own
    pack (ISSUE acceptance: answers differ, and differ for the right reason)."""

    def test_pack_registry(self):
        packs = objective_packs()
        assert set(packs) == {"edge", "weighted-vertex"}
        for name, pack in packs.items():
            assert pack.objective == name

    def test_edge_pack_answers_differ(self):
        pack = objective_packs()["edge"]
        base = _run(pack, "vertex")
        alt = _run(pack, "edge")
        assert set(base.embeddings) != set(alt.embeddings)
        assert alt.objective == "edge"
        assert alt.coverage_bound == pack.k * len(list(pack.query.edges()))

    def test_edge_pack_divergence_mechanism(self):
        # The vertex run's dispatch ratio is < 0.5, so it enters Phase 2 and
        # swaps out a loss-0 member for one extra *vertex*; the edge run is
        # already past 0.5 in edge units and keeps the Phase-1 answer. Both
        # answers tie on edges covered -- the swap buys vertices, not edges.
        pack = objective_packs()["edge"]
        base = _run(pack, "vertex")
        alt = _run(pack, "edge")
        edge_obj = make_objective("edge", query=pack.query)
        assert base.coverage == 11
        assert VERTEX.collection_coverage(alt.embeddings) == 10
        assert alt.coverage == 16
        assert edge_obj.collection_coverage(base.embeddings) == 16
        assert base.stats.phase2_ran and base.stats.phase2_swaps
        assert not alt.stats.phase2_ran

    def test_weighted_pack_answers_differ(self):
        pack = objective_packs()["weighted-vertex"]
        base = _run(pack, "vertex")
        alt = _run(pack, "weighted-vertex")
        assert set(base.embeddings) != set(alt.embeddings)
        assert alt.objective == "weighted-vertex"

    def test_weighted_pack_divergence_mechanism(self):
        # `vertex` certifies the disjoint Phase-1 answer optimal and stops;
        # `weighted-vertex` forfeits that certificate, runs Phase 2, and swaps
        # in the embedding holding the weight-100 vertex.
        pack = objective_packs()["weighted-vertex"]
        base = _run(pack, "vertex")
        alt = _run(pack, "weighted-vertex")
        assert base.optimal and base.optimal_reason == "disjoint"
        assert not base.stats.phase2_ran
        assert alt.stats.phase2_ran and alt.stats.phase2_swaps
        weighted = make_objective(
            "weighted-vertex",
            query=pack.query,
            graph=pack.graph,
            vertex_weights=pack.vertex_weights,
        )
        assert weighted.collection_coverage(alt.embeddings) == 103.0
        assert weighted.collection_coverage(base.embeddings) == 4
        assert alt.coverage == 103.0

    def test_vertex_baseline_on_packs_reports_default_objective(self):
        for pack in objective_packs().values():
            base = _run(pack, "vertex")
            assert base.objective == "vertex"
            assert base.coverage_bound is None
