"""The warm record: a repeated ``/v1/query`` payload skips its parse, the memo
copy, the reply build and, while the calibration holds, its pricing and its
reply encoding, and answers exactly as a cold read does.

A record is keyed by the payload's canonical text and retired when its
graph's version moves; the memo key is still taken under the read lock at the
current version, so no write is ever answered across.
"""

from __future__ import annotations

import copy
import random
import sys
import threading
import time
import types

import pytest

from repro.core.config import DSQLConfig
from repro.graph.labeled_graph import LabeledGraph
from repro.observability.metrics import MetricsRegistry
from repro.service import (
    GraphCatalog,
    QueryService,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    read_access_log,
)
from repro.service.schemas import query_graph_to_json, result_to_json
from repro.service.server import _SORTED_JSON, _EncodedReply, _ServiceHandler, _WarmRecord

from .conftest import DEFAULT_K, tiny_graph, tiny_queries

QUERY = "/v1/query"
WRITE = "/v1/graphs/tiny/ingest"


def _service(config=None, **kwargs):
    catalog = GraphCatalog(default_config=config or DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    return QueryService(catalog, **kwargs)


def _payload(query, **fields):
    return {"graph": "tiny", "query": query_graph_to_json(query), **fields}


def _post(service, path, payload, **kwargs):
    return service.handle_post(path, lambda: payload, **kwargs)


def _masked(body, *keys):
    return {key: value for key, value in body.items() if key not in ("elapsed_ms", *keys)}


def _fresh_answer(graph, query):
    """A freshly built catalog's body for ``query`` on a copy of ``graph``."""
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    entry = catalog.add_graph("tiny", LabeledGraph(list(graph.labels), list(graph.edges())))
    return result_to_json(entry.answer(query), graph="tiny")


def _cut_first_embedding(query, body):
    """An ingest removing one data edge of the first embedding the body names."""
    u, v = sorted(query.edges())[0]
    first = body["embeddings"][0]
    return {"ops": [["remove_edge", first[u], first[v]]]}


def _query_with_answers():
    return tiny_queries(count=1, seed=81)[0]


class TestAWarmRecordGoesStale:
    def test_a_write_between_two_reads_is_answered_on_the_written_graph(self):
        service = _service()
        query = _query_with_answers()
        read = _payload(query)
        status, first, _ = _post(service, QUERY, read)
        assert status == 200 and first["embeddings"]
        assert _post(service, WRITE, _cut_first_embedding(query, first))[0] == 200
        status, second, _ = _post(service, QUERY, read)
        graph = service.catalog.get("tiny").graph
        assert status == 200 and second["from_cache"] is False
        assert second["embeddings"] != first["embeddings"]
        assert _masked(second, "estimated_cost") == _masked(_fresh_answer(graph, query))
        service.close()

    def test_a_warm_read_parked_after_its_probe_answers_a_write_that_landed(self):
        service = _service()
        query = _query_with_answers()
        read = _payload(query)
        status, first, _ = _post(service, QUERY, read)
        assert _post(service, QUERY, read)[1]["from_cache"] is True  # warm, and a memo hit
        entered, release = threading.Event(), threading.Event()
        try_admit = service.admission.try_admit

        def parked(cost):
            entered.set()
            assert release.wait(30)
            return try_admit(cost)

        service.admission.try_admit = parked
        answers = []
        reader = threading.Thread(target=lambda: answers.append(_post(service, QUERY, read)))
        reader.start()
        assert entered.wait(30)
        service.admission.try_admit = try_admit
        # The reader holds no lock while parked: the write goes through.
        assert _post(service, WRITE, _cut_first_embedding(query, first))[0] == 200
        release.set()
        reader.join(30)
        assert not reader.is_alive()
        ((status, body, _),) = answers
        graph = service.catalog.get("tiny").graph
        assert status == 200 and body["from_cache"] is False
        assert body["embeddings"] != first["embeddings"]
        assert _masked(body, "estimated_cost") == _masked(_fresh_answer(graph, query))
        service.close()

    def test_a_served_integer_does_not_let_true_or_a_float_through(self):
        service = _service()
        query = _query_with_answers()
        assert _post(service, QUERY, _payload(query, k=1))[0] == 200
        assert _post(service, QUERY, _payload(query, k=1))[0] == 200
        for bad in (True, 1.0):
            status, body, _ = _post(service, QUERY, _payload(query, k=bad))
            assert (status, body["error"]["code"]) == (400, "invalid_request")
        service.close()

    def test_records_stay_within_the_memo_size_and_a_write_empties_them(self):
        service = _service(DSQLConfig(k=DEFAULT_K, query_cache_size=4))
        queries = tiny_queries(count=10, seed=82)
        for query in queries + queries[:3]:
            assert _post(service, QUERY, _payload(query))[0] == 200
            assert 0 < len(service._warm) <= 4
        assert _post(service, WRITE, {"ops": [["add_vertex", "zz"]]})[0] == 200
        assert len(service._warm) == 0
        service.close()
        off = _service(DSQLConfig(k=DEFAULT_K, query_cache_size=0))
        for _ in range(2):
            assert _post(off, QUERY, _payload(queries[0]))[0] == 200
        assert len(off._warm) == 0
        off.close()


def _zipf_script(count, ops, seed=0):
    """Every query once, then ``ops`` Zipf draws over them."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(count)]
    return list(range(count)) + rng.choices(range(count), weights=weights, k=ops)


def _distinct_queries(count):
    seen, queries = set(), []
    for query in tiny_queries(count=4 * count, seed=83):
        if query.canonical_key() not in seen:
            seen.add(query.canonical_key())
            queries.append(query)
    assert len(queries) >= count
    return queries[:count]


def _counts(catalog):
    counters = catalog.instrumentation.metrics.counters_snapshot()
    stats = catalog.get("tiny").default_session.stats
    return (
        stats.query_cache_misses,
        stats.query_cache_hits,
        counters.get("plan.cache.misses"),
        counters.get("plan.cache.hits"),
        counters.get("cost.estimates"),
    )


class TestAWarmReadAnswersAsAColdOne:
    def test_a_zipf_script_gets_the_cold_paths_bodies_and_counts(self):
        queries = _distinct_queries(64)
        script = _zipf_script(64, 200)
        service = _service()
        # The cold path, step by step: price, answer through the memo copy,
        # observe, encode.
        cold = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = cold.add_graph("tiny", tiny_graph())
        # A record is priced on its first probe and again on its first probe
        # after the calibration changed, which every cold search does.
        changes, priced_at, prices = 0, {}, 0
        for i in script:
            if priced_at.get(i) != changes:
                priced_at[i], prices = changes, prices + 1
            status, body, _ = _post(service, QUERY, _payload(queries[i]))
            changes += not body["from_cache"]
            estimate = entry.estimate_cost(queries[i])
            result = entry.answer(queries[i])
            entry.observe_cost(estimate, result)
            want = result_to_json(result, graph="tiny")
            want["estimated_cost"] = estimate.to_wire()
            assert status == 200 and _masked(body) == _masked(want)
        hits = len(script) - 64
        assert 64 < prices < len(script)
        assert _counts(service.catalog) == (64, hits, 64, prices, prices)
        assert _counts(cold) == (64, hits, 64, 64 + hits, len(script))
        service.close()

    def test_a_returned_body_shares_nothing_with_the_next_reply(self):
        service = _service()
        read = _payload(_query_with_answers())
        _post(service, QUERY, read)
        _, body, _ = _post(service, QUERY, read)
        want = copy.deepcopy(_masked(body))
        body["embeddings"][0][0] = -1
        body["embeddings"].append([7])
        body["stats"]["nodes_expanded"] = -1
        body["estimated_cost"]["work_units"] = -1
        _, again, _ = _post(service, QUERY, read)
        assert again["from_cache"] is True and _masked(again) == want
        service.close()

    @pytest.mark.parametrize("gate", ["quota", "admission"])
    def test_a_warm_read_still_meets_both_gates(self, gate):
        query = _query_with_answers()
        if gate == "quota":
            service = _service(client_quota_rate=0.001)
            code = "quota_exceeded"
        else:
            service = _service(admission_mode="cost", work_unit_budget=1.0)
            code = "overloaded"
        assert _post(service, QUERY, _payload(query))[0] == 200
        assert len(service._warm) == 1
        blocker = service.admission.try_admit(1.0) if gate == "admission" else None
        status, body, retry_after = _post(service, QUERY, _payload(query))
        assert (status, body["error"]["code"]) == (429, code) and retry_after is not None
        if blocker is not None:
            service.admission.release(blocker)
        service.close()

    def test_a_warm_read_writes_the_cold_reads_access_log_fields(self, tmp_path):
        path = tmp_path / "access.jsonl"
        service = _service(access_log=path)
        read = _payload(_query_with_answers())
        bodies = [
            _post(service, QUERY, read, headers={"X-Client-Id": "alice"})[1] for _ in range(2)
        ]
        service.close()
        cold, warm = read_access_log(path)
        assert [b["from_cache"] for b in bodies] == [False, True]
        for line, body in zip((cold, warm), bodies):
            assert line["estimated_work_units"] == body["estimated_cost"]["work_units"]
        varying = ("ts_ms", "request_id", "latency_ms", "estimated_work_units")
        assert _masked(warm, *varying) == _masked(cold, *varying)
        assert warm["query_key"] is not None and warm["actual_work_units"] is not None


class TestAnHttpHitCopiesNothing:
    def test_the_kept_bytes_go_out_and_the_log_reads_the_stored_count(self, tmp_path, monkeypatch):
        """Over HTTP a warm hit is sent as its kept bytes: no body is built
        for it (``_WarmRecord.body`` is not entered, so nothing is copied),
        and the access log reads ``nodes_expanded`` off the stored result.
        An in-process caller still gets a fresh body, with the same fields
        and the same count."""
        built, body = [], _WarmRecord.body
        monkeypatch.setattr(_WarmRecord, "body", lambda hit: built.append(hit) or body(hit))
        log = tmp_path / "access.jsonl"
        service = _service(access_log=log)
        server = ServiceServer(service, port=0).start()
        query = _query_with_answers()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            replies = [client.query("tiny", query) for _ in range(3)]
            assert [reply["from_cache"] for reply in replies] == [False, True, True]
            assert built == []
            status, fresh, _ = _post(service, QUERY, _payload(query))
            assert status == 200 and fresh["from_cache"] and len(built) == 1
        finally:
            server.close()  # closes the service, and its access log
        assert _masked(fresh) == _masked(replies[1]) == _masked(replies[2])
        count = fresh["stats"]["nodes_expanded"]
        assert [line["actual_work_units"] for line in read_access_log(log)] == [count] * 4


def _sent(body):
    """The body bytes ``_send_json`` puts on the wire for ``body``."""
    sent = []
    handler = types.SimpleNamespace(
        connection=types.SimpleNamespace(sendall=sent.append),
        client_address=("127.0.0.1", 0),
        command="POST",
        path=QUERY,
    )
    _ServiceHandler._send_json(handler, 200, body)
    (data,) = sent
    return data.split(b"\r\n\r\n", 1)[1]


class TestAWarmHitKeepsItsPriceAndBytes:
    def test_kept_prices_and_bytes_equal_fresh_ones_across_every_change(self):
        """Cold reads move the calibration, a write moves the version and a
        restore replaces the calibration state with an equal one: every
        probe's estimate equals a fresh one, every reply's bytes equal the
        encoder's, and a record prices again only after its state changed."""
        service = _service()
        entry = service.catalog.get("tiny")
        estimates = service.instrumentation.metrics.counter("cost.estimates")
        queries = _distinct_queries(4)

        def read(query):
            payload = _payload(query)
            fresh = entry.estimate_cost(query)
            before = estimates.value
            # What the HTTP handler sends, and the body an in-process caller gets.
            status, sent, _ = service._serve_post(QUERY, lambda: payload, None, None)
            body = _WarmRecord.body(sent) if isinstance(sent, _EncodedReply) else sent
            priced = estimates.value - before
            _, kept, wire = service._warm[_SORTED_JSON.encode(payload)].price
            assert status == 200 and kept == fresh
            assert wire == fresh.to_wire() == body["estimated_cost"]
            assert _sent(sent) == _SORTED_JSON.encode(body).encode()
            assert isinstance(sent, _EncodedReply) is body["from_cache"]
            return body["from_cache"], priced

        def each(hit, priced):
            return [(hit, priced)] * len(queries)

        assert [read(q) for q in queries] == each(False, 1)
        assert [read(q) for q in queries] == each(True, 1)  # each cold read observed
        assert [read(q) for q in queries] == each(True, 0)
        calibration = entry.index_cache.cost_estimator().calibration
        observations = calibration.observations
        calibration.restore(calibration.snapshot())
        assert calibration.observations == observations
        assert [read(q) for q in queries] == each(True, 1)
        assert [read(q) for q in queries] == each(True, 0)
        assert _post(service, WRITE, {"ops": [["add_vertex", "zz"]]})[0] == 200
        assert [read(q) for q in queries] == each(False, 1)
        assert [read(q) for q in queries] == each(True, 1)
        assert [read(q) for q in queries] == each(True, 0)
        service.close()


def test_readers_racing_over_a_small_record_table_get_the_serial_answers():
    """Six threads, a memo and a record table of three for eight payloads:
    records and memo entries are evicted and rebuilt under the readers, and
    every reply is still the serial answer."""
    queries = _distinct_queries(8)
    service = _service(DSQLConfig(k=DEFAULT_K, query_cache_size=3))
    reference = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K)).add_graph("tiny", tiny_graph())
    want = [
        _masked(result_to_json(reference.answer(q), graph="tiny"), "from_cache") for q in queries
    ]
    failures, answered = [], []

    def reader(seed):
        rng = random.Random(seed)
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            i = rng.randrange(len(queries))
            status, body, _ = _post(service, QUERY, _payload(queries[i]))
            if status != 200 or _masked(body, "estimated_cost", "from_cache") != want[i]:
                failures.append((i, status))
            if len(service._warm) > 3:
                failures.append(("records", len(service._warm)))
            answered.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answered and not failures
    stats = service.catalog.get("tiny").default_session.stats
    assert stats.query_cache_hits + stats.query_cache_misses == len(answered)
    service.close()


def test_a_retire_walks_the_table_under_the_lock():
    """``_keep`` inserting while ``_retire_stale`` walks the table: the walk's
    first version read starts the insert and gives it 0.5 s to land. Under
    the lock it lands after the walk, in the new table; without it, it lands
    inside the walk, which raises ``dictionary changed size during
    iteration``."""
    service = _service()
    inserts = []

    class VersionRead:
        @property
        def version(self):
            if not inserts:
                inserts.append(threading.Thread(target=service._keep, args=("new", record)))
                inserts[0].start()
                deadline = time.monotonic() + 0.5
                while "new" not in service._warm and time.monotonic() < deadline:
                    time.sleep(0.005)
            return 1

    entry = types.SimpleNamespace(index_cache=VersionRead())
    record = types.SimpleNamespace(version=1, entry=entry)
    service._warm = {"old": record}
    service._retire_stale()
    inserts[0].join(10)
    assert not inserts[0].is_alive()
    assert list(service._warm) == ["old", "new"]
    service.close()


class TestAWarmRequestReadsNoRegistry:
    @pytest.mark.parametrize("mode", ["count", "cost", "off"])
    def test_no_metric_is_looked_up_by_name_on_a_warm_http_request(self, mode, monkeypatch):
        """Every instrument a warm request touches (outcome counters, latency,
        the admission gauges of each mode, the memo's hit counter) is bound
        once, so the request makes no registry lookup at all — and neither
        does a quota refusal or a write."""
        # A quota so small that a client's first request runs into debt and
        # its second is refused; each client below is a fresh, full bucket.
        service = _service(admission_mode=mode, client_quota_rate=1e-6)
        server = ServiceServer(service, port=0).start()
        try:
            query = tiny_queries(count=1)[0]
            for name in ("cold", "warm"):
                # cold: searches, and moves the calibration; warm: prices
                # once under the new calibration.
                ServiceClient(server.url, timeout=30.0, client_id=name).query("tiny", query)
            lookups, lookup = [], MetricsRegistry._get
            monkeypatch.setattr(
                MetricsRegistry, "_get",
                lambda registry, name, *rest: lookups.append(name) or lookup(registry, name, *rest),
            )
            client = ServiceClient(server.url, timeout=30.0, client_id="spied")
            assert client.query("tiny", query)["from_cache"]
            with pytest.raises(ServiceClientError) as refused:
                client.query("tiny", query)
            assert refused.value.code == "quota_exceeded"
            writer = ServiceClient(server.url, timeout=30.0, client_id="writer")
            assert writer.ingest("tiny", [["add_vertex", "zz"]])["applied"] == 1
            assert lookups == []
            counts = service.metrics_snapshot()["metrics"]
            assert counts["service.quota_rejections"] == counts["service.mutations"] == 1
        finally:
            server.close()
