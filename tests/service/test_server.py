"""End-to-end HTTP tests: correctness, ops endpoints, errors, and drain."""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
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
from repro.service.schemas import MAX_BODY_BYTES, parse_json_body, query_graph_to_json
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries


def _reference_session() -> DSQL:
    return DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K))


def _tiny_server(service_cls=QueryService, **options):
    """An unstarted server over a private catalog holding ``tiny``."""
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    return ServiceServer(service_cls(catalog, **options), port=0)


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

    @pytest.mark.parametrize(
        "declared, status, code",
        [
            ("-1", 400, "invalid_request"),
            ("1.5", 400, "invalid_request"),
            ("99999999999", 413, "request_too_large"),
            (str(MAX_BODY_BYTES + 1), 413, "request_too_large"),
        ],
    )
    def test_declared_length_judged_before_the_read(self, server, client, declared, status, code):
        # No body follows and the socket stays open: the reply has to come
        # from the declaration alone, within the socket's 1 s timeout.
        head = f"POST /v1/query HTTP/1.0\r\nContent-Length: {declared}\r\n\r\n"
        with socket.create_connection(server.address, timeout=1.0) as sock:
            sock.sendall(head.encode("ascii"))
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == status
        assert json.loads(body)["error"]["code"] == code
        assert client.metrics()["metrics"].get("service.requests.server_error", 0) == 0
        assert client.query("tiny", tiny_queries(count=1)[0])["coverage"] >= 1


def _single_slot_server(max_queue=0):
    return _tiny_server(max_in_flight=1, max_queue=max_queue, retry_after_s=2.5).start()


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
    return _tiny_server(_SlowService, max_in_flight=2, max_queue=2).start()


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


def _in_threads(count, target):
    """Run ``target(slot)`` on ``count`` threads at once; returns them started."""
    threads = [threading.Thread(target=target, args=(slot,), daemon=True) for slot in range(count)]
    for thread in threads:
        thread.start()
    return threads


def _joined(threads, timeout=30):
    for thread in threads:
        thread.join(timeout=timeout)
    return not any(thread.is_alive() for thread in threads)


def _wait_until(predicate, timeout=10):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)


class _ParkedService(QueryService):
    """A service whose search waits on an event, so load can be held still."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.parked = []  # the handler thread of every search held here

    def handle_query(self, payload, probe=None):
        self.parked.append(threading.get_ident())
        assert self.release.wait(timeout=30)
        return super().handle_query(payload, probe)


class TestConnectionThreads:
    """A connection meets a handler thread that already exists."""

    def test_sequential_requests_reuse_handler_threads(self):
        server = _tiny_server()
        # Thread objects, kept: the OS hands a dead thread's ident to the next.
        handle_post, handlers = server.service.handle_post, []

        def recording(*args, **kwargs):
            handlers.append(threading.current_thread())
            return handle_post(*args, **kwargs)

        server.service.handle_post = recording
        server.start()
        try:
            client = ServiceClient(server.url, timeout=10.0)
            query = tiny_queries(count=1)[0]
            for _ in range(50):
                client.query("tiny", query)
        finally:
            server.close()
        # Not one: a thread is idle again only after it has shut its socket,
        # so on a loaded box the next connections can arrive while one or two
        # are still closing. A thread per request would show fifty.
        assert len(handlers) == 50 and len(set(handlers)) <= 5

    def test_close_leaves_no_thread_behind(self):
        before = threading.active_count()
        server = _tiny_server(max_in_flight=16).start()
        client = ServiceClient(server.url, timeout=30.0)
        queries = tiny_queries(count=4, seed=61)
        burst = _in_threads(16, lambda slot: client.query("tiny", queries[slot % 4]))
        assert _joined(burst)
        assert threading.active_count() > before  # the accept loop and idle handlers
        server.close()
        assert threading.active_count() == before

    def test_two_servers_over_one_service_close_independently(self):
        # The multi-worker shape: a front and an admin server share a service.
        before = threading.active_count()
        front = _tiny_server()
        admin = ServiceServer(front.service, port=0).start()
        front.start()
        query = tiny_queries(count=1)[0]
        for server in (front, admin):
            assert ServiceClient(server.url, timeout=10.0).query("tiny", query)["coverage"] >= 1
        front.close()
        with pytest.raises(ServiceClientError) as info:
            ServiceClient(front.url, timeout=2.0).healthz()
        assert info.value.code == "unreachable"
        assert ServiceClient(admin.url, timeout=10.0).healthz()["status"] == "draining"
        admin.close()
        assert threading.active_count() == before

    def test_beyond_the_ceiling_a_connection_waits_and_a_drain_answers_it(self, monkeypatch):
        monkeypatch.setattr("repro.service.server._MAX_HANDLER_THREADS", 1)
        server = _tiny_server(_ParkedService).start()
        service, query = server.service, tiny_queries(count=1)[0]
        outcomes = {}

        def send(slot):
            try:
                outcomes[slot] = ServiceClient(server.url, timeout=30.0).query("tiny", query)
            except ServiceClientError as exc:
                outcomes[slot] = (exc.status, exc.code)

        first = _in_threads(1, send)
        _wait_until(lambda: service.parked)
        second = _in_threads(1, lambda _: send(1))  # accepted; no thread is free
        time.sleep(0.2)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        time.sleep(0.2)
        assert closer.is_alive() and not outcomes  # the drain waits; nothing is dropped
        service.release.set()
        assert _joined(first + second + [closer])
        assert outcomes[0]["coverage"] >= 1
        assert outcomes[1] == (503, "draining")  # picked up after the drain began
        assert len(service.parked) == 1

    def test_process_exits_without_waiting_after_close(self):
        script = (
            "from repro.service import ServiceClient\n"
            "from tests.service.test_server import _tiny_server, tiny_queries\n"
            "server = _tiny_server().start()\n"
            "ServiceClient(server.url, timeout=10.0).query('tiny', tiny_queries(count=1)[0])\n"
            "server.close()\n"
            "print('closed', flush=True)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        try:
            assert process.stdout.readline().strip() == "closed"
            assert process.wait(timeout=2) == 0
        finally:
            process.kill()
            process.stdout.close()


class TestOverloadIsAdmissionsDecision:
    """Reused handler threads refuse nothing: below the ceiling every
    connection gets one, and what is turned away is turned away by the gate."""

    @pytest.mark.parametrize("mode, held", [("count", 4), ("cost", 12), ("off", 12)])
    def test_twelve_at_once(self, mode, held):
        server = _tiny_server(
            _ParkedService, max_in_flight=2, max_queue=2, admission_mode=mode
        ).start()
        service, queries = server.service, tiny_queries(count=12, seed=62)
        replies = []

        def send(slot):
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            started = time.monotonic()
            try:
                body = json.dumps({"graph": "tiny", "query": query_graph_to_json(queries[slot])})
                conn.request("POST", "/v1/query", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
                replies.append(
                    (slot, response.status, payload, response.getheader("Retry-After"),
                     time.monotonic() - started)
                )
            finally:
                conn.close()

        try:
            senders = _in_threads(12, send)
            searching = 2 if mode == "count" else 12  # the other two wait at the gate
            _wait_until(
                lambda: len(replies) >= 12 - held and len(service.parked) >= searching
            )
            time.sleep(0.2)  # anything else that was going to be refused has been
            refused = list(replies)
            assert len(refused) == 12 - held
            assert len(set(service.parked)) == len(service.parked) == searching
            for _, status, payload, retry_after, elapsed in refused:
                assert (status, payload["error"]["code"]) == (429, "overloaded")
                assert int(retry_after) >= 1 and elapsed < 1.0
            if mode == "count":
                assert (service.admission.in_flight, service.admission.waiting) == (2, 2)
            service.release.set()
            assert _joined(senders)
        finally:
            service.release.set()
            server.close()
        reference = _reference_session()
        answered = [reply for reply in replies if reply[1] == 200]
        assert len(answered) == held and len(replies) == 12
        for slot, _, payload, _, _ in answered:
            want = reference.query(queries[slot])
            assert payload["embeddings"] == [list(e) for e in want.embeddings]
            assert payload["coverage"] == want.coverage

    def test_a_burst_waits_in_the_backlog(self):
        # Bound and listening, accept loop not started: every connection of a
        # burst must complete its handshake into the listen backlog. A short
        # backlog drops the rest's SYNs, and each such client waits out the
        # kernel's 1 s retransmit before it can even be refused.
        server = _tiny_server()
        connected = []
        try:
            for _ in range(48):
                try:
                    connected.append(socket.create_connection(server.address, timeout=0.3))
                except OSError:
                    break
        finally:
            for sock in connected:
                sock.close()
            server.close()
        assert len(connected) == 48
