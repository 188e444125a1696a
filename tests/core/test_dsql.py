"""End-to-end tests for the public DSQL API."""

from __future__ import annotations

import pytest

import repro.core.dsql as dsql_module
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL, diversified_search
from repro.coverage.bounds import overall_ratio_bound, phase1_ratio_bound
from repro.coverage.exact import optimal_coverage
from repro.coverage.objectives import build_weight_profile
from repro.datasets.registry import make_dataset
from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import embeddings_distinct, validate_embedding
from repro.isomorphism.qsearch import enumerate_embeddings
from repro.queries.generator import query_set

from tests.conftest import connected_query_from, random_labeled_graph


class TestApiSurface:
    def test_requires_config_or_k(self):
        g = LabeledGraph(["a"])
        with pytest.raises(ValueError, match="either"):
            DSQL(g)

    def test_conflicting_k(self):
        g = LabeledGraph(["a"])
        with pytest.raises(ValueError, match="conflicting"):
            DSQL(g, config=DSQLConfig(k=3), k=4)

    def test_matching_k_ok(self):
        g = LabeledGraph(["a"])
        DSQL(g, config=DSQLConfig(k=3), k=3)

    def test_diversified_search_overrides(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2, run_phase2=False)
        assert r.k == 2

    def test_config_and_overrides_conflict(self, fig1):
        graph, query = fig1
        with pytest.raises(ValueError, match="not both"):
            diversified_search(graph, query, k=2, config=DSQLConfig(k=2), seed=1)

    def test_solver_reusable_across_queries(self, fig1, fig2):
        graph, query = fig1
        solver = DSQL(graph, k=2)
        r1 = solver.query(query)
        r2 = solver.query(query)
        assert r1.coverage == r2.coverage


class TestResultContract:
    @pytest.mark.parametrize("seed", range(8))
    def test_embeddings_valid_distinct_capped(self, seed):
        graph = random_labeled_graph(30, 3, 0.2, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 19)
        k = 5
        r = diversified_search(graph, query, k=k)
        assert len(r) <= k
        assert embeddings_distinct(r.embeddings)
        for emb in r.embeddings:
            validate_embedding(graph, query, emb)
        assert r.coverage == len(r.cover_set())
        assert 0.0 <= r.approx_ratio_lower_bound() <= 1.0

    def test_validate_results_flag(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2, validate_results=True)
        assert len(r) == 2

    def test_summary_mentions_key_facts(self, fig1):
        graph, query = fig1
        text = diversified_search(graph, query, k=2).summary()
        assert "coverage" in text and "2/2" in text

    def test_vertex_sets_view(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2)
        assert all(isinstance(s, frozenset) for s in r.vertex_sets())

    def test_max_value_rules(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2)
        assert r.optimal
        assert r.max_value() == r.coverage
        r2 = diversified_search(graph, query, k=3)
        if not r2.optimal:
            assert r2.max_value() == 3 * query.size


class TestOptimalityClaims:
    def test_disjoint_claim_is_true(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2)
        assert r.optimal and r.optimal_reason == "disjoint"
        assert r.is_disjoint()

    def test_exhausted_claim_verified_against_exact(self):
        """optimal(exhausted) results must match the true optimum.

        Verified with the strict maximality mode and the cap disabled, where
        the Theorem 3 argument holds unconditionally.
        """
        checked = 0
        for seed in range(20):
            graph = random_labeled_graph(22, 3, 0.25, seed=seed)
            query = connected_query_from(graph, 3, seed=seed + 23)
            config = DSQLConfig(
                k=8, exhaustive_level=True, single_embedding_mode=False
            )
            r = DSQL(graph, config=config).query(query)
            if not (r.optimal and r.optimal_reason == "exhausted"):
                continue
            embeddings = enumerate_embeddings(graph, query, distinct_vertex_sets=True)
            if len(embeddings) > 150:
                continue
            try:
                opt, _ = optimal_coverage(embeddings, 8, max_nodes=200_000)
            except ConfigError:
                continue  # instance too hard for an exact answer; skip it
            assert r.coverage == opt, seed
            checked += 1
        assert checked >= 2

    def test_theorem3_bound_holds_vs_exact(self):
        """Phase-1 level bound: coverage >= bound * optimum (strict mode)."""
        for seed in range(8):
            graph = random_labeled_graph(25, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 2, seed=seed + 29)
            k = 4
            config = DSQLConfig(
                k=k,
                exhaustive_level=True,
                single_embedding_mode=False,
                run_phase2=False,
            )
            r = DSQL(graph, config=config).query(query)
            embeddings = enumerate_embeddings(graph, query, distinct_vertex_sets=True)
            if not embeddings or len(embeddings) > 150:
                continue
            try:
                opt, _ = optimal_coverage(embeddings, k, max_nodes=200_000)
            except ConfigError:
                continue
            bound = phase1_ratio_bound(query.size, r.level, k)
            assert r.coverage >= bound * opt - 1e-9, seed

    def test_overall_bound_holds_vs_exact(self):
        """Theorem 4: full DSQL >= 0.25 * (1 + max(1/k, 1/q)) of optimum."""
        for seed in range(8):
            graph = random_labeled_graph(28, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 3, seed=seed + 37)
            k = 4
            config = DSQLConfig(k=k, exhaustive_level=True, single_embedding_mode=False)
            r = DSQL(graph, config=config).query(query)
            embeddings = enumerate_embeddings(graph, query, distinct_vertex_sets=True)
            if not embeddings or len(embeddings) > 150:
                continue
            try:
                opt, _ = optimal_coverage(embeddings, k, max_nodes=200_000)
            except ConfigError:
                continue
            assert r.coverage >= overall_ratio_bound(k, query.size) * opt - 1e-9


class TestPhaseDispatch:
    def test_phase2_skipped_when_optimal(self, fig1):
        graph, query = fig1
        r = diversified_search(graph, query, k=2)
        assert r.optimal
        assert not r.stats.phase2_ran

    def test_phase2_skipped_when_ratio_target_met(self):
        for seed in range(6):
            graph = random_labeled_graph(40, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 2, seed=seed)
            r = diversified_search(graph, query, k=4)
            ratio = r.coverage / (4 * query.size)
            if not r.optimal and ratio >= 0.5:
                assert not r.stats.phase2_ran or r.stats.phase2_ran is False

    def test_weighted_dispatch_is_held_to_the_vertex_one_by_counts(self):
        """A ceiling read off ``candS(u)`` certifies a weighted answer about
        where ``k * q`` certifies a vertex one. Against ``k`` times the ``q``
        heaviest vertices of the graph no answer reached 0.5: phase 2 ran on
        29 of these ops to ``vertex``'s 11, at 3.2x the expansions."""
        graph = make_dataset("human", scale=1.0, seed=0)
        queries = list(query_set(graph, 6, 40, seed=7))
        phase2_ops, expansions = {}, {}
        for name in ("vertex", "weighted-vertex"):
            session = DSQL(graph, DSQLConfig(k=40, node_budget=20_000, objective=name))
            stats = [session.query(query).stats for query in queries]
            phase2_ops[name] = sum(s.phase2_ran for s in stats)
            expansions[name] = sum(s.nodes_expanded for s in stats)
        assert 0 < phase2_ops["weighted-vertex"] <= 1.25 * phase2_ops["vertex"]
        assert expansions["weighted-vertex"] <= 1.5 * expansions["vertex"]

    def test_weights_follow_writes_with_no_profile_rebuilt(self, monkeypatch):
        built = []

        def counted(graph, vertex_weights=None):
            built.append(graph)
            return build_weight_profile(graph, vertex_weights)

        monkeypatch.setattr(dsql_module, "build_weight_profile", counted)
        graph = random_labeled_graph(40, 2, 0.2, seed=1)
        query = connected_query_from(graph, 2, seed=1)
        session = DSQL(graph, DSQLConfig(k=4, objective="weighted-vertex"))
        weight = session._weight_profile.weight
        for step in range(20):
            u, v = step, (step + 7) % graph.num_vertices
            op = "remove_edge" if graph.has_edge(u, v) else "add_edge"
            before = graph.version
            assert graph.mutate([(op, u, v)]).applied == 1 and graph.version != before
            assert all(weight(x) == 1 + graph.degree(x) for x in graph.vertices())
            result = session.query(query)
            twin = LabeledGraph(list(graph.labels), list(graph.edges()))
            assert result.to_dict() == DSQL(twin, session.config).query(query).to_dict()
        assert sum(g is graph for g in built) == 1  # the rest are the twins' sessions

    def test_run_phase2_false_never_runs(self):
        for seed in range(6):
            graph = random_labeled_graph(40, 2, 0.2, seed=seed)
            query = connected_query_from(graph, 2, seed=seed)
            r = diversified_search(graph, query, k=4, run_phase2=False)
            assert not r.stats.phase2_ran

    def test_dsqlh_never_claims_exhausted_optimal(self):
        for seed in range(6):
            graph = random_labeled_graph(30, 3, 0.2, seed=seed)
            query = connected_query_from(graph, 3, seed=seed)
            r = DSQL(graph, config=DSQLConfig.dsqlh(6)).query(query)
            assert r.optimal_reason != "exhausted"
