"""Tests for :mod:`repro.service.multiworker` — the pre-forked worker front.

Covers the full story on one machine: N workers are forked with the
parent's catalog graphs, answer correctly (bit-identical to a serial
session) through the kernel-balanced shared port, and the parent's control
server presents coherent merged /healthz and /metrics views — with the
parent's cache locks held across the fork, too. Skipped on platforms
without SO_REUSEPORT or the fork start method.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.exceptions import ConfigError
from repro.observability.metrics import MetricsRegistry
from repro.service import GraphCatalog, MultiWorkerServer, ServiceClient, ServiceClientError
from tests.conftest import ProcessCensus, held_by_another_thread
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries
from tests.service.test_wire import error_code, exchange, parse_reply

WORKERS = 2


def _platform_supported() -> bool:
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-dependent
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _platform_supported(),
    reason="multiworker front requires SO_REUSEPORT and the fork start method",
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def front():
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph(), source="fixture")
    server = MultiWorkerServer(catalog, workers=WORKERS).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def client(front):
    return ServiceClient(front.url, timeout=30.0)


class TestAnswers:
    def test_point_queries_match_serial(self, client):
        queries = tiny_queries(count=4)
        session = DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K))
        for query in queries:
            body = client.query("tiny", query)
            reference = session.query(query)
            assert body["embeddings"] == [list(e) for e in reference.embeddings]
            assert body["coverage"] == reference.coverage

    def test_batch_matches_serial_query_many(self, client):
        queries = tiny_queries(count=5, seed=3)
        reference = DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K)).query_many(queries)
        body = client.batch("tiny", queries)
        assert body["count"] == len(queries)
        got = [r["embeddings"] for r in body["results"]]
        assert got == [[list(e) for e in r.embeddings] for r in reference]

    def test_every_worker_answers_on_the_shared_port(self, front):
        # Hit each worker's private admin address to prove both processes
        # are serving the same graph; the shared port reaches *a* worker
        # (kernel's pick), the admin servers reach each one determinately.
        for info in front.worker_info:
            body = _get(f"{info['admin_url']}/healthz")
            assert body["status"] == "ok"
            assert body["graphs"] == ["tiny"]
            assert body["identity"]["pid"] == info["pid"]


class TestMergedViews:
    def test_merged_healthz_lists_all_workers(self, front, client):
        client.healthz()  # at least one request through the shared port
        body = _get(f"{front.control_url}/healthz")
        assert body["status"] == "ok"
        assert body["workers"] == WORKERS
        assert body["healthy_workers"] == WORKERS
        pids = {w["identity"]["pid"] for w in body["per_worker"]}
        assert pids == {info["pid"] for info in front.worker_info}

    def test_merged_metrics_sum_across_workers(self, front, client):
        queries = tiny_queries(count=3, seed=5)
        for query in queries:
            client.query("tiny", query)
        body = _get(f"{front.control_url}/metrics")
        assert body["workers"] == WORKERS
        assert len(body["per_worker"]) == WORKERS
        # Each worker counts its own requests; the merged view must hold
        # at least the queries just sent (plus health/metrics traffic).
        assert body["metrics"].get("service.requests", 0) >= len(queries)
        assert sorted(body) == ["metrics", "per_worker", "role", "workers"]

    def test_control_unknown_endpoint_is_404(self, front):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{front.control_url}/nope")
        assert excinfo.value.code == 404
        # The service's one error shape, as every other reply has it.
        assert json.loads(excinfo.value.read()) == {
            "error": {"code": "unknown_endpoint", "message": "no such endpoint: GET /nope"}
        }

    def test_a_post_and_a_malformed_request_get_the_one_error_shape(self, front):
        """The control plane answers on the service's own transport: a POST
        (it has no POST route) and a request line that does not parse are
        JSON error bodies, as every other reply is."""
        url = urllib.parse.urlsplit(front.control_url)
        for request, expected in (
            (b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", (404, "unknown_endpoint")),
            (b"HELLO\r\n\r\n", (400, "invalid_request")),
        ):
            status, _, body = parse_reply(exchange((url.hostname, url.port), [request]))
            assert (status, error_code(status, body)) == expected

    def test_an_unreachable_worker_is_reported_in_the_one_error_shape(self):
        """A worker the merged views cannot read is a ``per_worker`` row
        whose ``error`` is ``ServiceError.to_body()``'s object, as every
        other error body is, not a bare string."""
        with socket.socket() as probe:  # a port nothing listens on once closed
            probe.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        unstarted = MultiWorkerServer(GraphCatalog(), workers=1)
        unstarted.worker_info.append({"worker": 0, "admin_url": dead})
        status, health = unstarted.merged_healthz()
        for body in (health, unstarted.merged_metrics()):
            (row,) = body["per_worker"]
            assert (row["worker"], row["reachable"]) == (0, False)
            assert sorted(row["error"]) == ["code", "message"]
            assert row["error"]["code"] == "unreachable"
            assert row["error"]["message"].startswith("URLError: ")
        assert status == 503 and health["healthy_workers"] == 0

    def test_the_client_reads_a_control_404_as_a_typed_error(self, front):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(front.control_url)._call("GET", "/nope", None)
        assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_endpoint")


class TestValidation:
    def test_rejects_zero_workers(self):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        with pytest.raises(ConfigError, match="workers"):
            MultiWorkerServer(catalog, workers=0)


class TestNoInheritedLock:
    def test_workers_start_and_answer_with_the_parents_cache_locks_held(self):
        """Another parent thread holds every lock of the graph's cache (and
        of a registry attached to it) across ``start()``: the forked workers
        inherit those locks locked, so each must report ready and answer on
        a cache it built itself."""
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        graph = tiny_graph()
        catalog.add_graph("tiny", graph, source="fixture")
        queries = tiny_queries(count=3, seed=7)
        reference = DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K))
        want = [[list(e) for e in reference.query(q).embeddings] for q in queries]
        cache, registry = graph.index_cache(), MetricsRegistry()
        cache.attach_metrics(registry)
        locks = [cache._lock, cache.plan_cache._lock, registry._lock]
        server = MultiWorkerServer(catalog, workers=WORKERS)
        try:
            with held_by_another_thread(locks):
                server.start()
                assert len(server.worker_info) == WORKERS
                for info in server.worker_info:
                    admin = ServiceClient(info["admin_url"], timeout=20.0)
                    assert [admin.query("tiny", q)["embeddings"] for q in queries] == want
        finally:
            server.close()
            cache.attach_metrics(None)


@pytest.mark.slow
class TestLifecycle:
    def test_close_drains_workers_and_frees_segments(self):
        """A front owns its worker processes, their pipes and two sockets —
        no segment: nothing appears under ``/dev/shm`` while it serves, and
        after ``close()`` no child is left and, once the front (whose
        ``Process`` handles keep a sentinel pipe each) is dropped, the fd
        count is back."""
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        catalog.add_graph("tiny", tiny_graph(), source="fixture")
        census = ProcessCensus()
        server = MultiWorkerServer(catalog, workers=WORKERS).start()
        client = ServiceClient(server.url, timeout=30.0)
        query = tiny_queries(count=1)[0]
        assert client.query("tiny", query)["graph"] == "tiny"
        assert len(census.new_children()) == WORKERS and not census.new_shm()
        processes = list(server._processes)
        server.close()
        assert all(not process.is_alive() for process in processes)
        assert [process.exitcode for process in processes] == [0] * WORKERS
        assert not census.new_children() and not census.new_shm()
        server.close()  # idempotent
        del server, processes
        assert census.settled(), census.report()
