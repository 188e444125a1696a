"""Unit tests for the static cost model (repro.cost.estimator).

Edge cases the admission layer depends on: provably-empty searches must
estimate exactly zero (admit free), single-vertex plans must stay finite,
and the plan-level profile memo must actually memoize.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.cost import (
    DEFAULT_AUTO_BUDGET_FLOOR_MS,
    CostEstimate,
    derive_time_budget_ms,
    raw_cost_profile,
    raw_expansions,
)
from repro.datasets.registry import make_dataset
from repro.exceptions import ConfigError
from repro.graph.query_graph import QueryGraph
from repro.queries.generator import query_set


@pytest.fixture(scope="module")
def graph():
    return make_dataset("yeast", scale=0.1, seed=0)


@pytest.fixture(scope="module")
def session(graph):
    return DSQL(graph, config=DSQLConfig(k=5))


def _some_query(graph, seed=3):
    return query_set(graph, 3, 1, seed=seed)[0]


class TestEmptyPools:
    def test_unknown_label_estimates_zero(self, graph, session):
        # A label absent from the graph empties that pool: the engine can
        # prove emptiness without expanding anything, so the estimate is 0.
        query = QueryGraph(["NO_SUCH_LABEL", "L0"], [(0, 1)])
        estimate = session.estimate(query)
        assert estimate.work_units == 0.0
        assert estimate.is_free
        assert estimate.lower == 0.0 and estimate.upper == 0.0

    def test_free_query_answers_empty_and_identically(self, graph, session):
        query = QueryGraph(["NO_SUCH_LABEL", "L0"], [(0, 1)])
        first = session.query(query)
        second = DSQL(graph, config=DSQLConfig(k=5)).query(query)
        assert first.embeddings == () == second.embeddings
        assert first.coverage == 0 == second.coverage

    def test_empty_profile_is_marked(self, graph, session):
        query = QueryGraph(["NO_SUCH_LABEL"], [])
        plan = session.index_cache.plan_cache.get_or_compile(
            query, session.index_cache
        )
        profile = raw_cost_profile(plan, session.index_cache)
        assert profile.empty
        assert raw_expansions(profile, 10) == 0.0


class TestSingleVertex:
    def test_single_vertex_query_is_finite(self, graph, session):
        query = QueryGraph(["L0"], [])
        estimate = session.estimate(query)
        assert math.isfinite(estimate.work_units)
        assert estimate.work_units > 0.0
        result = session.query(query)
        assert result.stats.nodes_expanded >= 0


class TestEstimateShape:
    def test_band_orders_around_point(self, graph, session):
        estimate = session.estimate(_some_query(graph))
        assert 0.0 < estimate.lower <= estimate.work_units <= estimate.upper
        assert math.isfinite(estimate.upper)

    def test_monotone_in_k(self, graph, session):
        query = _some_query(graph, seed=5)
        plan = session.index_cache.plan_cache.get_or_compile(
            query, session.index_cache
        )
        estimator = session.index_cache.cost_estimator()
        small = estimator.estimate(plan, k=1).raw_expansions
        large = estimator.estimate(plan, k=100).raw_expansions
        assert large >= small

    def test_to_wire_is_json_friendly(self, graph, session):
        wire = session.estimate(_some_query(graph, seed=7)).to_wire()
        assert set(wire) == {
            "work_units",
            "lower",
            "upper",
            "calibration_factor",
            "observations",
        }
        assert all(isinstance(v, (int, float)) for v in wire.values())

    def test_profile_memoized_on_plan(self, graph, session):
        query = _some_query(graph, seed=9)
        plan = session.index_cache.plan_cache.get_or_compile(
            query, session.index_cache
        )
        calls = []

        def builder(p):
            calls.append(p)
            return raw_cost_profile(p, session.index_cache)

        first = plan.cost_profile(builder)
        second = plan.cost_profile(builder)
        assert first is second
        assert len(calls) <= 1  # 0 when an earlier estimate already built it


class TestEstimateApi:
    def test_estimator_shared_across_sessions(self, graph):
        # Calibration is per *graph*: two sessions over one graph must
        # share the estimator (and therefore the calibration state).
        a = DSQL(graph, config=DSQLConfig(k=5))
        b = DSQL(graph, config=DSQLConfig(k=7))
        assert a.index_cache.cost_estimator() is b.index_cache.cost_estimator()


class TestAutoBudget:
    def _estimate(self, units: float) -> CostEstimate:
        return CostEstimate(
            work_units=units,
            raw_expansions=units,
            lower=units / 2,
            upper=units * 2,
            k=10,
            per_depth=(1.0,),
            calibration_factor=1.0,
            observations=0,
        )

    def test_floor_applies_to_tiny_queries(self):
        budget = derive_time_budget_ms(self._estimate(1.0), work_unit_rate=200.0)
        assert budget == DEFAULT_AUTO_BUDGET_FLOOR_MS

    def test_scales_with_upper_band(self):
        small = derive_time_budget_ms(self._estimate(1e5), work_unit_rate=200.0)
        large = derive_time_budget_ms(self._estimate(1e6), work_unit_rate=200.0)
        assert large == pytest.approx(10 * small)
        # headroom(4) * upper(2e5) / rate(200) = 4000 ms
        assert small == pytest.approx(4000.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            derive_time_budget_ms(self._estimate(10.0), work_unit_rate=0.0)

    def test_config_validates_auto_budget(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=5, work_unit_rate=0.0)

    def test_auto_budget_query_runs_and_observes(self, graph):
        session = DSQL(graph, config=DSQLConfig(k=5, auto_time_budget=True))
        query = _some_query(graph, seed=11)
        before = session.index_cache.cost_estimator().calibration.observations
        result = session.query(query)
        after = session.index_cache.cost_estimator().calibration.observations
        assert result.stats.nodes_expanded >= 0
        assert after == before + 1
