"""Cost-aware admission: the work-unit gate, quotas, and invariance.

Three layers of coverage:

* unit tests for :class:`WorkUnitAdmissionController`,
  :class:`NullAdmissionController`, the factory, the count controller's
  occupancy-scaled ``Retry-After`` (the static-hint fix), and
  :class:`ClientQuotas` under a fake clock;
* transport-free end-to-end tests through ``QueryService.handle_post``:
  429 ``overloaded`` vs 429 ``quota_exceeded``, the ``estimated_cost``
  echo, and the /healthz admission mode;
* the admission-invariance property: the gate may delay or reject a
  request, but an *answered* request's results must be bit-identical
  whatever the mode (count / cost / off) — pinned against a serial DSQL
  reference on two registry datasets.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import Counter

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.cost.calibration import CalibrationState
from repro.datasets.registry import make_dataset
from repro.exceptions import ConfigError
from repro.graph.query_graph import QueryGraph
from repro.observability import MetricsRegistry
from repro.queries.generator import query_set
from repro.service import (
    AdmissionController,
    ClientQuotas,
    GraphCatalog,
    NullAdmissionController,
    QueryService,
    WorkUnitAdmissionController,
    build_admission_controller,
)
from repro.service.admission import MAX_RETRY_AFTER_S
from repro.service.schemas import query_graph_to_json
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries


class TestWorkUnitController:
    def test_admits_within_budget(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0)
        a = ctl.try_admit(60.0)
        b = ctl.try_admit(40.0)
        assert a is not None and b is not None
        assert ctl.units_in_flight == pytest.approx(100.0)
        assert ctl.in_flight == 2

    def test_rejects_over_budget_when_busy(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0)
        assert ctl.try_admit(60.0) is not None
        assert ctl.try_admit(50.0) is None
        assert ctl.rejected == 1

    def test_idle_gate_admits_any_cost(self):
        # A single query costlier than the whole budget must still run.
        ctl = WorkUnitAdmissionController(work_unit_budget=10.0)
        ticket = ctl.try_admit(1e9)
        assert ticket is not None
        assert ctl.units_in_flight == pytest.approx(1e9)

    def test_zero_cost_always_admits(self):
        # Saturate the gate, then ask for a provably-free request.
        ctl = WorkUnitAdmissionController(work_unit_budget=10.0)
        assert ctl.try_admit(10.0) is not None
        assert ctl.try_admit(1.0) is None
        free = ctl.try_admit(0.0)
        assert free is not None
        ctl.release(free)

    def test_concurrency_guard_caps_cheap_floods(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=1e9, max_in_flight=2)
        assert ctl.try_admit(1.0) is not None
        assert ctl.try_admit(1.0) is not None
        assert ctl.try_admit(1.0) is None  # budget fine, slots exhausted

    def test_release_returns_units(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0)
        ticket = ctl.try_admit(70.0)
        assert ctl.try_admit(50.0) is None
        ctl.release(ticket)
        assert ctl.units_in_flight == pytest.approx(0.0)
        assert ctl.try_admit(50.0) is not None

    def test_release_without_admit_raises(self):
        ctl = WorkUnitAdmissionController()
        with pytest.raises(RuntimeError):
            ctl.release(None)

    def test_retry_after_scales_with_backlog(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0, drain_rate=10.0)
        base = ctl.retry_after_hint(1.0)
        assert base == pytest.approx(1.0)  # idle: nothing to drain
        ctl.try_admit(150.0)  # idle admit, 50 units over budget
        hint_small = ctl.retry_after_hint(1.0, cost=0.0)
        hint_large = ctl.retry_after_hint(1.0, cost=100.0)
        assert hint_small == pytest.approx(50.0 / 10.0)
        assert hint_large == pytest.approx(150.0 / 10.0)
        assert base < hint_small < hint_large

    def test_retry_after_clamped(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=1.0, drain_rate=0.001)
        ctl.try_admit(1e6)
        assert ctl.retry_after_hint(1.0, cost=1e6) == MAX_RETRY_AFTER_S

    def test_gauges_track_units(self):
        registry = MetricsRegistry()
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0, metrics=registry)
        ticket = ctl.try_admit(30.0)
        assert registry.gauge("service.work_units_in_flight").value == pytest.approx(30.0)
        ctl.release(ticket)
        assert registry.gauge("service.work_units_in_flight").value == pytest.approx(0.0)

    def test_describe_snapshot(self):
        ctl = WorkUnitAdmissionController(work_unit_budget=100.0, max_in_flight=8)
        ctl.try_admit(12.5)
        assert ctl.describe() == {
            "mode": "cost",
            "work_unit_budget": 100.0,
            "max_in_flight": 8,
            "in_flight": 1,
            "work_units_in_flight": 12.5,
            "rejected_total": 0,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"work_unit_budget": 0.0},
            {"max_in_flight": 0},
            {"drain_rate": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WorkUnitAdmissionController(**kwargs)


class TestCountControllerRetryAfter:
    def test_hint_monotone_in_waiter_count(self):
        # The static-hint fix: a client rejected behind a deep queue must
        # be told to back off longer than one rejected at an empty queue.
        ctl = AdmissionController(max_in_flight=1, max_queue=4)
        assert ctl.acquire()
        hints = [ctl.retry_after_hint(1.0)]
        threads = []
        for n in (1, 2):
            thread = threading.Thread(target=ctl.acquire, daemon=True)
            thread.start()
            threads.append(thread)
            for _ in range(1000):
                if ctl.waiting == n:
                    break
                threading.Event().wait(0.001)
            assert ctl.waiting == n
            hints.append(ctl.retry_after_hint(1.0))
        assert hints[0] < hints[1] < hints[2]
        assert hints == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        for thread in threads:  # drain the waiters
            ctl.release()
            thread.join(timeout=5)

    def test_hint_clamped(self):
        ctl = AdmissionController(max_in_flight=1, max_queue=0)
        assert ctl.retry_after_hint(1e6) == MAX_RETRY_AFTER_S


class TestNullController:
    def test_admits_everything(self):
        ctl = NullAdmissionController()
        tickets = [ctl.try_admit(1e12) for _ in range(10)]
        assert all(t is not None for t in tickets)
        assert ctl.in_flight == 10
        for ticket in tickets:
            ctl.release(ticket)
        assert ctl.in_flight == 0
        assert ctl.rejected == 0
        assert ctl.retry_after_hint(2.5) == 2.5
        assert ctl.describe() == {"mode": "off", "in_flight": 0}


class TestFactory:
    def test_builds_each_mode(self):
        count = build_admission_controller("count", 4, 8)
        cost = build_admission_controller("cost", 4, 8, work_unit_budget=123.0)
        off = build_admission_controller("off", 4, 8)
        assert isinstance(count, AdmissionController)
        assert isinstance(cost, WorkUnitAdmissionController)
        assert isinstance(off, NullAdmissionController)
        assert (count.mode, cost.mode, off.mode) == ("count", "cost", "off")
        assert cost.work_unit_budget == 123.0
        # Cost mode keeps a wide concurrency guard: budget is the gate.
        assert cost.max_in_flight == 4 * 8

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_admission_controller("vibes", 4, 8)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestClientQuotas:
    def test_consume_and_refill(self):
        clock = _FakeClock()
        quotas = ClientQuotas(rate=1.0, burst=5.0, clock=clock)
        assert quotas.try_consume("a", 3.0)
        assert not quotas.try_consume("a", 3.0)  # 2 tokens left < 3
        clock.now += 1.0
        assert quotas.try_consume("a", 3.0)  # refilled to 3

    def test_debt_admits_costs_above_burst(self):
        clock = _FakeClock()
        quotas = ClientQuotas(rate=1.0, burst=5.0, clock=clock)
        # A full bucket covers min(cost, burst): the query passes and the
        # balance goes negative instead of rejecting it forever.
        assert quotas.try_consume("big", 12.0)
        assert not quotas.try_consume("big", 0.5)
        # Debt drains at the refill rate: 7 in debt + 0.5 needed = 7.5 s.
        assert quotas.retry_after("big", 0.5) == pytest.approx(7.5)
        clock.now += 8.0
        assert quotas.try_consume("big", 0.5)

    def test_clients_are_isolated(self):
        clock = _FakeClock()
        quotas = ClientQuotas(rate=1.0, burst=5.0, clock=clock)
        assert quotas.try_consume("greedy", 12.0)
        assert not quotas.try_consume("greedy", 1.0)
        assert quotas.try_consume("polite", 1.0)

    def test_retry_after_zero_when_affordable(self):
        quotas = ClientQuotas(rate=1.0, burst=5.0, clock=_FakeClock())
        assert quotas.retry_after("fresh", 2.0) == 0.0

    def test_retry_after_clamped(self):
        clock = _FakeClock()
        quotas = ClientQuotas(rate=0.001, burst=1.0, clock=clock)
        assert quotas.try_consume("a", 500.0)
        assert quotas.retry_after("a", 1.0) == MAX_RETRY_AFTER_S

    def test_lru_eviction_bounds_memory(self):
        clock = _FakeClock()
        quotas = ClientQuotas(rate=1.0, burst=5.0, max_clients=2, clock=clock)
        assert quotas.try_consume("a", 5.0)
        assert quotas.try_consume("b", 5.0)
        assert quotas.try_consume("c", 5.0)  # evicts "a"
        assert quotas.describe()["tracked_clients"] == 2
        # Evicted client restarts with a fresh full bucket.
        assert quotas.try_consume("a", 5.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ClientQuotas(rate=0.0)
        with pytest.raises(ConfigError):
            ClientQuotas(rate=1.0, burst=-1.0)

    def test_default_burst_is_ten_rates(self):
        quotas = ClientQuotas(rate=3.0)
        assert quotas.burst == 30.0


# ----------------------------------------------------------------------
# Transport-free end-to-end: QueryService.handle_post with gates active.
# ----------------------------------------------------------------------
def _service(**kwargs) -> QueryService:
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    return QueryService(catalog, **kwargs)


def _query_payload(seed: int = 51):
    query = tiny_queries(count=1, seed=seed)[0]
    return {"graph": "tiny", "query": query_graph_to_json(query)}


class TestCostModeService:
    def test_estimated_cost_echoed(self):
        service = _service(admission_mode="cost")
        try:
            status, body, _ = service.handle_post("/v1/query", _query_payload)
            assert status == 200
            echo = body["estimated_cost"]
            assert echo["work_units"] > 0
            assert echo["lower"] <= echo["work_units"] <= echo["upper"]
        finally:
            service.close()

    def test_healthz_reports_mode(self):
        service = _service(admission_mode="cost", work_unit_budget=777.0)
        try:
            _, body = service.healthz()
            assert body["admission"]["mode"] == "cost"
            assert body["admission"]["work_unit_budget"] == 777.0
        finally:
            service.close()

    def test_saturated_cost_gate_answers_429_overloaded(self):
        # Tiny budget, occupied out-of-band: the next priced request
        # cannot fit and must be shed with a drain-scaled Retry-After.
        service = _service(
            admission_mode="cost", work_unit_budget=1.0, drain_rate=10.0
        )
        try:
            blocker = service.admission.try_admit(1.0)
            assert blocker is not None
            status, body, retry_after = service.handle_post(
                "/v1/query", _query_payload
            )
            assert (status, body["error"]["code"]) == (429, "overloaded")
            assert retry_after is not None and retry_after > service.retry_after_s
            service.admission.release(blocker)
            status, body, _ = service.handle_post("/v1/query", _query_payload)
            assert status == 200
        finally:
            service.close()

    def test_zero_cost_query_passes_saturated_gate(self):
        service = _service(admission_mode="cost", work_unit_budget=1.0)
        try:
            blocker = service.admission.try_admit(1.0)
            payload = {
                "graph": "tiny",
                "query": {"labels": ["NO_SUCH_LABEL", "L0"], "edges": [[0, 1]]},
            }
            status, body, _ = service.handle_post("/v1/query", lambda: payload)
            assert status == 200
            assert body["embeddings"] == []
            assert body["estimated_cost"]["work_units"] == 0.0
            service.admission.release(blocker)
        finally:
            service.close()

    def test_batch_cost_is_summed(self):
        service = _service(admission_mode="cost")
        try:
            queries = tiny_queries(count=3, seed=52)
            payload = {
                "graph": "tiny",
                "queries": [query_graph_to_json(q) for q in queries],
            }
            status, body, _ = service.handle_post("/v1/batch", lambda: payload)
            assert status == 200
            assert body["estimated_cost"]["queries"] == 3
            assert body["estimated_cost"]["work_units"] > 0
        finally:
            service.close()


class TestQuotaService:
    def test_quota_exceeded_is_distinct_from_overloaded(self):
        # Rate so small the first (debt-admitted) request empties the
        # bucket for hours: the same client's next request is quota-shed
        # while a different client passes untouched.
        service = _service(client_quota_rate=0.001)
        try:
            headers = {"X-Client-Id": "greedy"}
            status, _, _ = service.handle_post(
                "/v1/query", _query_payload, headers=headers
            )
            assert status == 200
            status, body, retry_after = service.handle_post(
                "/v1/query", _query_payload, headers=headers
            )
            assert (status, body["error"]["code"]) == (429, "quota_exceeded")
            assert retry_after is not None and retry_after >= service.retry_after_s
            status, _, _ = service.handle_post(
                "/v1/query", _query_payload, headers={"x-client-id": "polite"}
            )
            assert status == 200  # case-insensitive header, separate bucket
        finally:
            service.close()

    def test_anonymous_requests_share_one_bucket(self):
        service = _service(client_quota_rate=0.001)
        try:
            assert service.handle_post("/v1/query", _query_payload)[0] == 200
            status, body, _ = service.handle_post("/v1/query", _query_payload)
            assert (status, body["error"]["code"]) == (429, "quota_exceeded")
        finally:
            service.close()

    def test_quota_rejections_counted(self):
        service = _service(client_quota_rate=0.001)
        try:
            service.handle_post("/v1/query", _query_payload)
            service.handle_post("/v1/query", _query_payload)
            metrics = service.instrumentation.metrics.snapshot()
            assert metrics["service.quota_rejections"] == 1
        finally:
            service.close()

    def test_invalid_request_never_consumes_quota(self):
        service = _service(client_quota_rate=0.001)
        try:
            bad = {"graph": "tiny", "query": {"labels": ["A", "B"], "edges": []}}
            for _ in range(3):  # parse errors must not drain the bucket
                status, body, _ = service.handle_post("/v1/query", lambda: bad)
                assert (status, body["error"]["code"]) == (400, "invalid_query")
            assert service.handle_post("/v1/query", _query_payload)[0] == 200
        finally:
            service.close()

    def test_invalid_write_never_consumes_quota(self):
        # Two tokens, refilled over hours: a malformed batch and a write to
        # an unknown graph are refused by the probe, before either gate, so
        # the client's valid write still finds a full bucket.
        service = _service(client_quota_rate=0.001, client_quota_burst=2)
        try:
            status, body, _ = service.handle_post(
                "/v1/graphs/tiny/ingest", lambda: {"ops": "nope"}
            )
            assert (status, body["error"]["code"]) == (400, "invalid_mutation")
            status, body, _ = service.handle_post(
                "/v1/graphs/nosuch/edges", lambda: {"op": "add", "u": 0, "v": 1}
            )
            assert (status, body["error"]["code"]) == (404, "unknown_graph")
            assert service.quotas.describe()["tracked_clients"] == 0
            graph = service.catalog.get("tiny").graph
            v = next(x for x in range(1, graph.num_vertices) if not graph.has_edge(0, x))
            edge = {"op": "add", "u": 0, "v": v}
            assert service.handle_post("/v1/graphs/tiny/edges", lambda: edge)[0] == 200
            # An endpoint out of range is only knowable under the write
            # lock: that mistake is charged (the last token), as documented.
            far = {"op": "add", "u": 0, "v": 10**9}
            status, body, _ = service.handle_post("/v1/graphs/tiny/edges", lambda: far)
            assert (status, body["error"]["code"]) == (400, "invalid_mutation")
            status, body, _ = service.handle_post("/v1/graphs/tiny/edges", lambda: edge)
            assert (status, body["error"]["code"]) == (429, "quota_exceeded")
        finally:
            service.close()

    def test_healthz_reports_quotas(self):
        service = _service(client_quota_rate=2.0, client_quota_burst=50.0)
        try:
            _, body = service.healthz()
            assert body["client_quotas"] == {
                "rate_units_per_s": 2.0,
                "burst_units": 50.0,
                "tracked_clients": 0,
            }
        finally:
            service.close()


# ----------------------------------------------------------------------
# The admission-invariance property: gates shed load, they never change
# answers. Pinned against a serial DSQL reference on two datasets.
# ----------------------------------------------------------------------
INVARIANCE_DATASETS = [("yeast", 0.1), ("human", 0.05)]


@pytest.mark.parametrize("name,scale", INVARIANCE_DATASETS, ids=lambda v: str(v))
def test_admission_mode_never_changes_results(name, scale):
    graph = make_dataset(name, scale=scale, seed=0)
    queries = query_set(graph, 3, 3, seed=77)
    reference = [DSQL(graph, config=DSQLConfig(k=DEFAULT_K)).query(q) for q in queries]
    for mode in ("count", "cost", "off"):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        catalog.add_graph(name, graph)
        service = QueryService(catalog, admission_mode=mode)
        try:
            for query, want in zip(queries, reference):
                payload = {"graph": name, "query": query_graph_to_json(query)}
                status, body, _ = service.handle_post("/v1/query", lambda: payload)
                assert status == 200, (mode, body)
                assert body["embeddings"] == [list(e) for e in want.embeddings], mode
                assert body["coverage"] == want.coverage, mode
        finally:
            service.close()


# ----------------------------------------------------------------------
# What each gate sheds under a 10 %-dense stream, in counts: shed requests
# are the deterministic face of "cheap traffic queues behind dense queries".
# ----------------------------------------------------------------------
def _dense_stream():
    """``(graph, config, stream)`` on the yeast stand-in at bench scale: the
    15 costliest 6-cycles over the three commonest labels (>= 3 hub-label
    vertices, raw estimate >= 3000 units) shuffled into the 135 cheapest
    distinct 3- and 5-edge generator queries. To a counting gate both kinds
    are "one request"."""
    graph = make_dataset("yeast", seed=0)
    config = DSQLConfig(k=16, node_budget=5_000)
    session = DSQL(graph, config=config)

    def raw(query):
        return session.estimate(query).raw_expansions

    top = [label for label, _ in Counter(graph.labels).most_common(3)]
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    dense = {
        combo: QueryGraph([top[i] for i in combo], ring)
        for combo in itertools.product(range(3), repeat=6)
        if combo.count(0) >= 3
    }
    dense = sorted((q for q in dense.values() if raw(q) >= 3000.0), key=raw, reverse=True)[:15]
    cheap = {}
    for num_edges, seed in [(3, 101), (3, 102), (5, 103), (5, 104)]:
        for query in query_set(graph, num_edges, 50, seed=seed):
            cheap.setdefault(query.canonical_key(), query)
    cheap = sorted(cheap.values(), key=raw)[:135]
    assert (len(dense), len(cheap)) == (15, 135)
    stream = [("cheap", q) for q in cheap] + [("dense", q) for q in dense]
    random.Random(404).shuffle(stream)
    return graph, config, stream


def test_cost_admission_sheds_dense_never_cheap_and_count_the_reverse():
    graph, config, stream = _dense_stream()
    reference = DSQL(graph, config=config)
    want = [reference.query(query) for _, query in stream]
    slots = sum(kind == "dense" for kind, _ in stream)
    last_dense = max(i for i, (kind, _) in enumerate(stream) if kind == "dense")
    # One dense query and the cheap traffic fit the budget; a second dense does not.
    heaviest = max(reference.estimate(q).work_units for kind, q in stream if kind == "dense")
    shed = {}
    for mode, kwargs in (
        ("count", {"max_queue": 0}),
        ("cost", {"work_unit_budget": 1.3 * heaviest}),
    ):
        catalog = GraphCatalog(default_config=config)
        catalog.add_graph("bench", graph)
        service = QueryService(catalog, admission_mode=mode, max_in_flight=slots, **kwargs)
        held, shed[mode] = [], []
        try:
            for i, (kind, query) in enumerate(stream):
                # Price by the static model, so what is shed does not hinge on feedback order.
                graph.index_cache().cost_estimator().restore(CalibrationState())
                payload = {"graph": "bench", "query": query_graph_to_json(query)}
                status, body, _ = service.handle_post("/v1/query", lambda: payload)
                if status == 429:
                    shed[mode].append((i, kind))
                    continue
                assert status == 200, body
                assert body["embeddings"] == [list(e) for e in want[i].embeddings]
                assert body["coverage"] == want[i].coverage
                if kind == "dense":
                    # Still running when the next requests arrive: stays admitted.
                    held.append(service.admission.try_admit(body["estimated_cost"]["work_units"]))
            assert None not in held
        finally:
            for ticket in held:
                service.admission.release(ticket)
            service.close()
    # Cost mode prices requests: dense ones are shed, cheap ones never.
    assert {kind for _, kind in shed["cost"]} == {"dense"}
    # Count mode cannot tell them apart: every dense query gets a slot, and
    # once the slots are full of them every cheap request is turned away.
    assert shed["count"] == [(i, "cheap") for i in range(last_dense + 1, len(stream))]
    assert shed["count"]
