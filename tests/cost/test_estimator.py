"""Unit tests for the static cost model (repro.cost.estimator).

Edge cases the admission layer depends on: provably-empty searches must
estimate exactly zero (admit free), single-vertex plans must stay finite,
and the plan-level profile memo must actually memoize.
"""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.cost import (
    DEFAULT_AUTO_BUDGET_FLOOR_MS,
    CostEstimate,
    EwmaCalibration,
    derive_time_budget_ms,
    raw_cost_profile,
    raw_expansions,
)
from repro.datasets.registry import make_dataset
from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.indexes.plans import compile_plan
from repro.queries.generator import query_set
from repro.service import GraphCatalog, QueryService
from repro.service.schemas import query_graph_to_json
from tests.indexes.test_delta_repair import kept_masses


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

        first = plan.cost_profile(builder, session.index_cache)
        second = plan.cost_profile(builder, session.index_cache)
        assert first is second
        assert len(calls) <= 1  # 0 when an earlier estimate already built it


class TestColdPricing:
    """What pricing a plan costs, held by counts: the pools' degree masses are
    kept on their entries (``GraphIndexCache.degree_mass``), a query says its own
    signature, and a surviving plan is priced again after a write."""

    def test_pricing_a_cold_plan_reads_no_degrees(self):
        class CountingDegrees(list):
            reads = 0

            def __getitem__(self, index):
                CountingDegrees.reads += 1
                return super().__getitem__(index)

        graph = make_dataset("dblp", scale=0.05, seed=0)
        session = DSQL(graph, config=DSQLConfig(k=10))
        cache = session.index_cache
        cache.degrees = CountingDegrees(cache.degrees)
        battery = list(query_set(graph, 4, 16, seed=5))
        for query in battery:
            session.estimate(query)
        assert CountingDegrees.reads > 0 and kept_masses(cache)  # primed: summed once
        rng = random.Random(1)
        compiled = 0
        for _ in range(20):
            ops = []
            while len(ops) < 8:
                u, v = rng.sample(range(graph.num_vertices), 2)
                if not graph.has_edge(u, v):
                    ops.append(("add_edge", u, v))
            graph.mutate(ops)
            reads, info, plans = CountingDegrees.reads, cache.memo_info(), cache.plan_cache.misses
            asked = 0
            for query in battery:
                before = cache.plan_cache.misses
                session.estimate(query)
                asked += query.size * (cache.plan_cache.misses - before)
            # Every write stranded plans, and pricing their replacements
            # walked no pool (the parent read each pool's every degree).
            assert cache.plan_cache.misses > plans
            assert CountingDegrees.reads == reads
            # The compiles asked the pool memo for one pool per query node;
            # the masses asked it nothing.
            after = cache.memo_info()
            assert after["hits"] + after["misses"] - info["hits"] - info["misses"] == asked
            compiled += cache.plan_cache.misses - plans
        assert compiled >= 20 and cache.memo_info()["dropped"] == 0
        reference = DSQL(LabeledGraph(list(graph.labels), list(graph.edges())), DSQLConfig(k=10))
        assert [session.estimate(q) for q in battery] == [reference.estimate(q) for q in battery]

    def test_a_query_builds_no_index_cache(self, graph, monkeypatch):
        built = []
        init = GraphIndexCache.__init__

        def counting_init(self, graph, *args, **kwargs):
            built.append(graph)
            init(self, graph, *args, **kwargs)

        cache = graph.index_cache()
        catalog = GraphCatalog(default_config=DSQLConfig(k=5))
        catalog.add_graph("g", graph)
        service = QueryService(catalog)
        monkeypatch.setattr(GraphIndexCache, "__init__", counting_init)
        query = _some_query(graph, seed=13)
        compile_plan(query, cache)
        assert query._cache is None  # the parent built one right here
        for objective in OBJECTIVE_NAMES:
            session = DSQL(graph, config=DSQLConfig(k=5, objective=objective))
            session.estimate(query)
            session.query(query)
        payload = {"graph": "g", "query": query_graph_to_json(query)}
        assert service.handle_post("/v1/query", lambda: payload)[0] == 200
        service.close()
        assert query._cache is None and built == []

    def test_a_surviving_plan_is_priced_again_after_an_edge_write(self):
        graph = LabeledGraph(list("ababcccc"), [(0, 1), (2, 3), (0, 3), (4, 5), (5, 6)])
        session = DSQL(graph, config=DSQLConfig(k=2))
        query = QueryGraph(["a", "b"], [(0, 1)])
        assert session.estimate(query).per_depth == (1.0, 0.45)
        plans = session.index_cache.plan_cache
        plan = plans.get_or_compile(query, session.index_cache)
        # Only label 'c' is dirtied: the a-b plan survives, and 2|E| moved under it.
        graph.mutate([("add_edge", 6, 7), ("add_edge", 4, 7)])
        assert plans.get_or_compile(query, session.index_cache) is plan
        rebuilt = DSQL(LabeledGraph(list(graph.labels), list(graph.edges())), DSQLConfig(k=2))
        assert session.estimate(query) == rebuilt.estimate(query)
        assert session.estimate(query).per_depth == (1.0, 9 / 28)
        # A vertex-only batch moves no 2|E|: the survivor keeps its profile.
        profile = plan._cost_profile
        graph.mutate([("add_vertex", "c")])
        assert plans.get_or_compile(query, session.index_cache) is plan
        assert plan._cost_profile is profile

    def test_a_profile_priced_across_a_write_is_not_kept(self, monkeypatch):
        """The parked-probe recipe on the plan's cost profile: pricing reads
        ``2|E|``, parks in the first pool's degree mass, a ``c-c`` edge lands
        (the ``a-b`` plan survives it and its profile is reset), pricing
        finishes. Its caller gets the pre-write estimate; the plan keeps no
        profile priced at the old ``2|E|``."""
        graph = LabeledGraph(list("ababcccc"), [(0, 1), (2, 3), (0, 3), (4, 5), (5, 6)])
        cache = graph.index_cache()
        query = QueryGraph(["a", "b"], [(0, 1)])
        plan = cache.plan_cache.get_or_compile(query, cache)
        entered, release = threading.Event(), threading.Event()
        mass = GraphIndexCache.degree_mass

        def parked(self, *args):
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return mass(self, *args)

        monkeypatch.setattr(GraphIndexCache, "degree_mass", parked)
        got = {}
        estimator = cache.cost_estimator()
        reader = threading.Thread(target=lambda: got.setdefault("est", estimator.estimate(plan)))
        reader.start()
        assert entered.wait(30)
        graph.add_edge(6, 7)
        release.set()
        reader.join(30)
        assert not reader.is_alive()
        monkeypatch.undo()
        assert got["est"].per_depth == (1.0, 0.45)  # priced at 2|E| = 10
        assert cache.plan_cache.get_or_compile(query, cache) is plan
        assert plan._cost_profile in (None, raw_cost_profile(plan, cache))
        assert estimator.estimate(plan).per_depth == (1.0, 0.375)
        assert plan._cost_profile == raw_cost_profile(plan, cache)


class TestEstimateApi:
    def test_estimator_shared_across_sessions(self, graph):
        # Calibration is per *graph*: two sessions over one graph must
        # share the estimator (and therefore the calibration state).
        a = DSQL(graph, config=DSQLConfig(k=5))
        b = DSQL(graph, config=DSQLConfig(k=7))
        assert a.index_cache.cost_estimator() is b.index_cache.cost_estimator()

    def test_an_estimate_reads_one_calibration_state(self):
        """An ``observe`` landing while ``estimate`` reads the calibration
        must not mix two states into one estimate: one is hooked in right
        after the estimator's first read of its calibration."""
        graph = LabeledGraph(list("ababcccc"), [(0, 1), (2, 3), (0, 3), (4, 5), (5, 6)])
        cache = graph.index_cache()
        plan = cache.plan_cache.get_or_compile(QueryGraph(["a", "b"], [(0, 1)]), cache)

        class ObservedMidRead(EwmaCalibration):
            def __getattribute__(self, name):
                value = super().__getattribute__(name)
                if not name.startswith("_") and object.__getattribute__(self, "_armed"):
                    self._armed = False
                    self.observe(10.0, 5000.0)
                return value

        calibration = ObservedMidRead()
        calibration._armed = False
        calibration.observe(10.0, 40.0)
        states = [calibration.snapshot()]
        calibration._armed = True
        estimator = cache.cost_estimator()
        estimator._calibration = calibration
        estimate = estimator.estimate(plan, k=2)
        assert not calibration._armed  # the observe landed inside estimate
        states.append(calibration.snapshot())

        def read(state):
            reader = EwmaCalibration()
            reader.restore(state)
            return reader.factor, reader.band, reader.observations

        (f0, b0, n0), (f1, b1, n1) = map(read, states)
        assert f0 != f1 and b0 != b1 and n0 != n1
        matching = [
            (factor, band, observations)
            for factor, band, observations in map(read, states)
            if estimate.calibration_factor == factor
            and estimate.observations == observations
            and estimate.lower == pytest.approx(estimate.work_units / band)
            and estimate.upper == pytest.approx(estimate.work_units * band)
        ]
        assert estimate.work_units > 0 and len(matching) == 1


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
