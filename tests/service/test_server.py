"""End-to-end HTTP tests: correctness, ops endpoints, errors, and drain."""

from __future__ import annotations

import http.client
import json
import signal
import threading
import time

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.service import (
    GraphCatalog,
    QueryService,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
)
from repro.service.schemas import parse_json_body, query_graph_to_json
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries


def _reference_session() -> DSQL:
    return DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K))


class TestQueryEndpoint:
    def test_response_matches_direct_session(self, client):
        query = tiny_queries(count=1, seed=21)[0]
        body = client.query("tiny", query)
        want = _reference_session().query(query)
        assert body["embeddings"] == [list(e) for e in want.embeddings]
        assert body["coverage"] == want.coverage
        assert body["graph"] == "tiny"
        assert body["deadline_exhausted"] is False
        assert body["elapsed_ms"] >= 0

    def test_repeat_query_served_from_memo(self, client):
        query = tiny_queries(count=1, seed=22)[0]
        first = client.query("tiny", query)
        second = client.query("tiny", query)
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert second["embeddings"] == first["embeddings"]

    def test_k_override(self, client):
        query = tiny_queries(count=1, seed=23)[0]
        body = client.query("tiny", query, k=2)
        assert body["k"] == 2
        assert len(body["embeddings"]) <= 2

    def test_dict_query_payload_accepted(self, client):
        query = tiny_queries(count=1, seed=24)[0]
        body = client.query("tiny", query_graph_to_json(query))
        assert body["coverage"] >= 1

    def test_objective_override(self, client):
        query = tiny_queries(count=1, seed=25)[0]
        body = client.query("tiny", query, objective="edge")
        assert body["objective"] == "edge"
        want = DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K, objective="edge")).query(
            query
        )
        assert body["embeddings"] == [list(e) for e in want.embeddings]
        assert body["coverage"] == want.coverage

    def test_objective_sessions_do_not_cross_memo(self, client):
        # Same query under two objectives: distinct sessions, distinct memos.
        query = tiny_queries(count=1, seed=26)[0]
        base = client.query("tiny", query)
        alt = client.query("tiny", query, objective="edge")
        again = client.query("tiny", query)
        assert alt["objective"] == "edge"
        assert again["objective"] == "vertex"
        assert again["embeddings"] == base["embeddings"]


class TestBatchEndpoint:
    def test_batch_matches_serial_query_many(self, client):
        queries = tiny_queries(count=4, seed=31)
        body = client.batch("tiny", queries, strategy="thread", jobs=2)
        expected = _reference_session().query_many(queries)
        assert body["count"] == len(queries)
        got = [r["embeddings"] for r in body["results"]]
        want = [[list(e) for e in r.embeddings] for r in expected]
        assert got == want
        assert body["executor"]["strategy"] == "thread"
        assert body["executor"]["batch"] == len(queries)

    def test_batch_counts_memo_hits(self, client):
        queries = tiny_queries(count=2, seed=32)
        client.batch("tiny", queries)
        again = client.batch("tiny", queries)
        assert again["cache_hits"] == len(queries)
        assert again["executor"]["searches"] == 0


class TestOpsEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["graphs"] == ["tiny"]
        assert body["admission"]["in_flight"] == 0
        assert body["uptime_ms"] > 0

    def test_healthz_lists_objectives(self, client):
        # Feature detection for clients: the supported objective registry.
        body = client.healthz()
        assert body["objectives"] == ["edge", "vertex", "weighted-vertex"]

    def test_metrics_reflect_traffic(self, client):
        query = tiny_queries(count=1, seed=41)[0]
        client.query("tiny", query)
        body = client.metrics()
        metrics = body["metrics"]
        assert metrics["service.requests"] >= 1
        assert metrics["service.requests.ok"] >= 1
        assert metrics["service.latency_ms"]["count"] >= 1
        assert body["catalog"]["tiny"]["vertices"] == tiny_graph().num_vertices


class TestTypedErrors:
    def test_unknown_graph_404(self, client):
        query = tiny_queries(count=1)[0]
        with pytest.raises(ServiceClientError) as info:
            client.query("nope", query)
        assert (info.value.status, info.value.code) == (404, "unknown_graph")

    def test_invalid_query_400(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.query("tiny", {"labels": ["A", "B"], "edges": []})
        assert (info.value.status, info.value.code) == (400, "invalid_query")

    def test_unhashable_label_400_not_500(self, server):
        payload = {"graph": "tiny", "query": {"labels": [["a"], "b"], "edges": [[0, 1]]}}
        status, body, _ = server.service.handle_post("/v1/query", lambda: payload)
        assert status == 400
        assert body["error"]["code"] == "invalid_query"

    @pytest.mark.parametrize("field", ["alpha", "time_budget_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_number_400_at_both_doors(self, server, field, value):
        service = server.service
        entry = service.catalog.get("tiny")
        payload = {"graph": "tiny", "query": query_graph_to_json(tiny_queries(count=1)[0])}
        payload[field] = value
        raw = json.dumps(payload).encode()  # json.dumps writes NaN / Infinity
        stats = entry.default_session.stats

        def state():
            return entry.graph.version, len(entry._sessions), stats.query_cache_misses

        before = state()
        status, body, _ = service.handle_post("/v1/query", lambda: parse_json_body(raw))
        assert (status, body["error"]["code"]) == (400, "invalid_json")
        # A caller that hands handle_post a dict never meets the parser.
        status, body, _ = service.handle_post("/v1/query", lambda: payload)
        assert (status, body["error"]["code"]) == (400, "invalid_config")
        assert state() == before

    def test_unknown_post_endpoint_404(self, client, server):
        with pytest.raises(ServiceClientError) as info:
            client._call("POST", "/v1/nope", {"graph": "tiny"})
        assert (info.value.status, info.value.code) == (404, "unknown_endpoint")

    def test_unknown_get_endpoint_404(self, client):
        with pytest.raises(ServiceClientError) as info:
            client._call("GET", "/nope", None)
        assert info.value.status == 404

    def test_invalid_objective_400_on_query(self, client):
        query = tiny_queries(count=1)[0]
        with pytest.raises(ServiceClientError) as info:
            client.query("tiny", query, objective="treewidth")
        assert (info.value.status, info.value.code) == (400, "invalid_objective")
        assert "treewidth" in info.value.message

    def test_invalid_objective_400_on_batch(self, client):
        queries = tiny_queries(count=1)
        with pytest.raises(ServiceClientError) as info:
            client.batch("tiny", queries, objective="treewidth")
        assert (info.value.status, info.value.code) == (400, "invalid_objective")

    def test_process_strategy_rejected(self, client):
        queries = tiny_queries(count=1)
        with pytest.raises(ServiceClientError) as info:
            client.batch("tiny", queries, strategy="process")
        assert (info.value.status, info.value.code) == (400, "invalid_request")

    def test_post_without_content_length_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/query", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_invalid_json_body_400(self, client, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/query", body=b"{nope")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


def _single_slot_server(max_queue=0):
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    service = QueryService(
        catalog, max_in_flight=1, max_queue=max_queue, retry_after_s=2.5
    )
    return ServiceServer(service, port=0).start()


class TestAdmissionOverHTTP:
    def test_429_when_full(self):
        server = _single_slot_server()
        try:
            # Occupy the only execution slot out-of-band: the next request
            # finds in_flight == max and an empty-capacity queue -> 429.
            assert server.service.admission.acquire()
            client = ServiceClient(server.url, timeout=10.0)
            query = tiny_queries(count=1)[0]
            with pytest.raises(ServiceClientError) as info:
                client.query("tiny", query)
            assert (info.value.status, info.value.code) == (429, "overloaded")
            assert info.value.retry_after_s == 3  # ceil(2.5) from Retry-After
            server.service.admission.release()
            assert client.query("tiny", query)["coverage"] >= 1
        finally:
            server.close()

    def test_rejections_counted(self):
        server = _single_slot_server()
        try:
            server.service.admission.acquire()
            client = ServiceClient(server.url, timeout=10.0)
            with pytest.raises(ServiceClientError):
                client.query("tiny", tiny_queries(count=1)[0])
            server.service.admission.release()
            snapshot = client.metrics()["metrics"]
            assert snapshot["service.requests.rejected"] >= 1
        finally:
            server.close()


class _SlowService(QueryService):
    """A service whose query handler lingers, to make drains observable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.hold_s = 0.3

    def handle_query(self, payload, probe=None):
        self.entered.set()
        time.sleep(self.hold_s)
        return super().handle_query(payload, probe)


def _slow_server():
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    service = _SlowService(catalog, max_in_flight=2, max_queue=2)
    return ServiceServer(service, port=0).start()


class TestDrain:
    def test_close_waits_for_in_flight_request(self):
        server = _slow_server()
        client = ServiceClient(server.url, timeout=10.0)
        query = tiny_queries(count=1)[0]
        outcome = {}

        def send():
            outcome["body"] = client.query("tiny", query)

        requester = threading.Thread(target=send, daemon=True)
        requester.start()
        assert server.service.entered.wait(timeout=5)
        start = time.monotonic()
        server.close()  # must block until the in-flight request completes
        drained_after = time.monotonic() - start
        requester.join(timeout=5)
        assert outcome["body"]["coverage"] >= 1  # served, not dropped
        # close() returned only after the handler's sleep had to finish
        # (upper bound left open: a loaded CI box may drain slowly).
        assert drained_after >= server.service.hold_s * 0.5

    def test_draining_service_says_503(self):
        server = _slow_server()
        try:
            client = ServiceClient(server.url, timeout=10.0)
            server.service.begin_drain()
            body = client.healthz()
            assert body["status"] == "draining"
            with pytest.raises(ServiceClientError) as info:
                client.query("tiny", tiny_queries(count=1)[0])
            assert (info.value.status, info.value.code) == (503, "draining")
        finally:
            server.close()

    def test_closed_server_unreachable(self):
        server = _single_slot_server()
        client = ServiceClient(server.url, timeout=2.0)
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServiceClientError) as info:
            client.healthz()
        assert info.value.status is None
        assert info.value.code == "unreachable"

    def test_sigterm_triggers_drain(self):
        server = _single_slot_server()
        previous = server.install_signal_handlers(signals=(signal.SIGTERM,))
        try:
            signal.raise_signal(signal.SIGTERM)
            assert server._closed.wait(timeout=10)
        finally:
            signal.signal(signal.SIGTERM, previous[signal.SIGTERM])
        client = ServiceClient(server.url, timeout=2.0)
        with pytest.raises(ServiceClientError):
            client.healthz()


class TestCompressionOverride:
    """``use_compression`` over the wire: identical answers, distinct session."""

    def test_query_identical_with_compression(self, client):
        query = tiny_queries(count=1, seed=31)[0]
        base = client.query("tiny", query)
        compressed = client.query("tiny", query, use_compression=True)
        assert compressed["embeddings"] == base["embeddings"]
        assert compressed["coverage"] == base["coverage"]
        # Distinct override config -> distinct session and memo.
        assert not compressed["from_cache"]

    def test_batch_identical_with_compression(self, client):
        queries = tiny_queries(count=3, seed=32)
        base = client.batch("tiny", queries)
        compressed = client.batch("tiny", queries, use_compression=True)
        assert [r["embeddings"] for r in compressed["results"]] == [
            r["embeddings"] for r in base["results"]
        ]
