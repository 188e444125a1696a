"""The service write surface: per-graph mutation endpoints and locking.

Covers the wire contract (``POST /v1/graphs/{g}/edges`` and
``/v1/graphs/{g}/ingest``), the typed failure modes (400
``invalid_mutation``, 404, 409 ``graph_compacting``, 501
``mutation_unsupported``), and the concurrency keystone: queries racing a
mutation always see either the full pre-mutation graph or the full
post-mutation graph — bit-identical to a rebuilt reference — never a
half-applied one.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

import repro.indexes.plans as plans_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.parallel import BatchExecutor
from repro.queries.generator import query_set
from repro.service import (
    GraphCatalog,
    QueryService,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service.client import ServiceClientError
from repro.service.schemas import query_graph_to_json

from tests.conftest import ProcessCensus, wait_until

from .conftest import DEFAULT_K, tiny_graph, tiny_queries


def _absent_pair(graph):
    u = 0
    v = next(x for x in range(1, graph.num_vertices) if not graph.has_edge(u, x))
    return u, v


@pytest.fixture()
def mutable_server():
    """A per-test server (mutations would leak across module-scoped tests)."""
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    graph = tiny_graph()
    catalog.add_graph("tiny", graph, source="fixture")
    srv = ServiceServer(QueryService(catalog), port=0).start()
    try:
        yield srv, ServiceClient(srv.url, timeout=30.0), graph
    finally:
        srv.close()


class TestEdgeEndpoint:
    def test_add_then_remove_round_trip(self, mutable_server):
        _, client, graph = mutable_server
        u, v = _absent_pair(graph)
        body = client.mutate_edge("tiny", "add", u, v)
        assert body["applied"] == 1 and body["compacted"] is False
        assert body["version"][1] == 1
        assert graph.has_edge(u, v)
        assert client.mutate_edge("tiny", "add", u, v)["applied"] == 0  # no-op
        body = client.mutate_edge("tiny", "remove", u, v)
        assert body["applied"] == 1 and not graph.has_edge(u, v)

    def test_invalid_edge_bodies(self, mutable_server):
        _, client, _ = mutable_server
        for payload in (
            {"op": "upsert", "u": 0, "v": 1},
            {"op": "add", "u": -1, "v": 1},
            {"op": "add", "u": 0, "v": True},
            {"op": "add", "u": 0, "v": 1, "extra": 1},
            {"op": "add", "u": 0, "v": 10**9},
        ):
            with pytest.raises(ServiceClientError) as exc:
                client._call("POST", "/v1/graphs/tiny/edges", payload)
            assert exc.value.status == 400

    def test_unknown_graph_and_endpoint(self, mutable_server):
        _, client, _ = mutable_server
        with pytest.raises(ServiceClientError) as exc:
            client.mutate_edge("nope", "add", 0, 1)
        assert exc.value.status == 404 and exc.value.code == "unknown_graph"
        with pytest.raises(ServiceClientError) as exc:
            client._call("POST", "/v1/graphs/tiny/frobnicate", {})
        assert exc.value.status == 404 and exc.value.code == "unknown_endpoint"


class TestIngestEndpoint:
    def test_batch_is_one_write(self, mutable_server):
        _, client, graph = mutable_server
        n = graph.num_vertices
        body = client.ingest(
            "tiny",
            [["add_vertex", "Z9"], ["add_edge", n, 0], ["remove_edge", n, 0]],
        )
        assert body["applied"] == 3
        assert graph.num_vertices == n + 1
        assert graph.label(n) == "Z9" and graph.degree(n) == 0

    def test_compaction_threshold_override(self, mutable_server):
        _, client, graph = mutable_server
        u, v = _absent_pair(graph)
        epoch, seq = graph.version
        body = client.ingest(
            "tiny", [["add_edge", u, v]], compaction_threshold=1
        )
        assert body["compacted"] is True
        assert body["version"] == [epoch, seq + 1]  # the write counted, the checkpoint did not
        assert graph.delta_size == 0

    def test_invalid_batch_is_atomic(self, mutable_server):
        _, client, graph = mutable_server
        edges_before = graph.num_edges
        u, v = _absent_pair(graph)
        with pytest.raises(ServiceClientError) as exc:
            client.ingest("tiny", [["add_edge", u, v], ["add_edge", 0, 10**9]])
        assert exc.value.status == 400 and exc.value.code == "invalid_mutation"
        assert graph.num_edges == edges_before and not graph.has_edge(u, v)

    def test_malformed_ops_reject(self, mutable_server):
        _, client, _ = mutable_server
        for ops in ([], [["noop"]], [["add_vertex", 3]], [["add_edge", 0]], "nope"):
            with pytest.raises(ServiceClientError) as exc:
                client._call("POST", "/v1/graphs/tiny/ingest", {"ops": ops})
            assert exc.value.status == 400


class TestWriteLock:
    def test_draining_timeout_is_409(self):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = catalog.add_graph("tiny", tiny_graph(), source="fixture")
        entry._rw.acquire_read()  # a reader pinned mid-query
        try:
            with pytest.raises(ServiceError) as exc:
                entry.mutate([("add_edge", 0, 1)], write_timeout_s=0.05)
            assert exc.value.status == 409
            assert exc.value.code == "graph_compacting"
            assert exc.value.retry_after_s is not None
        finally:
            entry._rw.release_read()
        # Reader gone: the same mutation goes through.
        summary = entry.mutate([("add_edge", *_absent_pair(entry.graph))])
        assert summary.applied == 1

    def test_read_only_service_answers_501(self):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        catalog.add_graph("tiny", tiny_graph(), source="fixture")
        service = QueryService(catalog, allow_mutations=False)
        status, body, _ = service.handle_post(
            "/v1/graphs/tiny/edges", lambda: {"op": "add", "u": 0, "v": 1}
        )
        assert status == 501
        assert body["error"]["code"] == "mutation_unsupported"


class TestProbeIsARead:
    """The cost probe compiles and caches a plan, so it runs under the graph's
    read lock like the answer it prices; before it did, a write landing inside
    the probe's compile left the pre-write plan cached behind ``evict_stale``
    and its answers memoized under the post-write version."""

    @staticmethod
    def _service():
        catalog = GraphCatalog(default_config=DSQLConfig(k=2))
        entry = catalog.add_graph("g", LabeledGraph(list("abab"), [(0, 1)]))
        query = QueryGraph(["a", "b"], [(0, 1)])
        return QueryService(catalog), entry, query

    def test_a_write_waits_for_a_parked_probe_and_no_stale_plan_survives(self, monkeypatch):
        service, entry, query = self._service()
        read = {"graph": "g", "query": query_graph_to_json(query)}
        write = {"ops": [["add_edge", 2, 3]]}
        entered, release = threading.Event(), threading.Event()
        compile_plan = plans_mod.compile_plan

        def parked(*args, **kwargs):
            plan = compile_plan(*args, **kwargs)  # the pre-write pools
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return plan

        monkeypatch.setattr(plans_mod, "compile_plan", parked)
        answers = {}

        def post(name, path, payload):
            answers[name] = service.handle_post(path, lambda: payload)

        reader = threading.Thread(target=post, args=("read", "/v1/query", read))
        writer = threading.Thread(target=post, args=("write", "/v1/graphs/g/ingest", write))
        reader.start()
        assert entered.wait(30)
        writer.start()
        writer.join(0.2)
        assert writer.is_alive() and "write" not in answers  # it waits for the probe
        release.set()
        reader.join(30)
        writer.join(30)
        assert not reader.is_alive() and not writer.is_alive()
        monkeypatch.undo()
        status, body, _ = answers["write"]
        assert status == 200 and body["version"][1] == 1
        rebuilt = LabeledGraph(list(entry.graph.labels), list(entry.graph.edges()))
        want = [list(e) for e in DSQL(rebuilt, config=DSQLConfig(k=2)).query(query).embeddings]
        assert want == [[0, 1], [2, 3]]
        # The probe let the write in before the answer took the lock again:
        # the racing read and every later one answer the post-write graph.
        status, body, _ = answers["read"]
        assert status == 200 and body["embeddings"] == want
        status, body, _ = service.handle_post("/v1/query", lambda: read)
        assert status == 200 and body["embeddings"] == want
        cache = entry.index_cache
        cached = cache.plan_cache.get_or_compile(query, cache)
        assert cached.pools == compile_plan(query, GraphIndexCache(rebuilt)).pools
        service.close()

    def test_a_refused_probe_leaves_no_reader_behind(self, monkeypatch):
        service, entry, query = self._service()
        malformed = {"graph": "g", "query": {"labels": ["a", "b"], "edges": []}}
        unknown = {"graph": "nosuch", "query": query_graph_to_json(query)}
        assert service.handle_post("/v1/query", lambda: malformed)[0] == 400
        assert service.handle_post("/v1/query", lambda: unknown)[0] == 404

        def refuse(self, query):
            raise ServiceError(400, "invalid_query", "refused inside the estimate")

        monkeypatch.setattr(DSQL, "estimate", refuse)
        read = {"graph": "g", "query": query_graph_to_json(query)}
        assert service.handle_post("/v1/query", lambda: read)[0] == 400
        monkeypatch.undo()
        assert entry._rw._readers == 0
        assert entry.mutate([("add_edge", 2, 3)], write_timeout_s=0.05).applied == 1
        # And a probe's lock is gone before admission: it is never held
        # across the queue wait.
        assert service.handle_post("/v1/query", lambda: read)[0] == 200
        assert entry._rw._readers == 0
        service.close()


    def test_probes_beside_a_writer_keep_every_mass_exact(self):
        """Three probing threads share the pool memo's lock with each other and
        take turns with a writer: every degree mass kept is still its pool's sum,
        and every estimate a rebuilt graph's."""
        from tests.indexes.test_delta_repair import assert_cache_equivalent, kept_masses

        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = catalog.add_graph("tiny", tiny_graph(), source="fixture")
        graph, cache = entry.graph, entry.index_cache
        battery = tiny_queries(count=8, seed=35)
        stop, errors, probes = threading.Event(), [], [0, 0, 0]

        def prober(tid):
            try:
                while not stop.is_set():
                    entry.estimate_cost(battery[(probes[tid] + tid) % len(battery)])
                    probes[tid] += 1
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tid, repr(exc)))

        def writer():
            try:
                while not stop.is_set():
                    u, v = _absent_pair(graph)
                    entry.mutate([("add_edge", u, v)])
                    time.sleep(0.005)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(("writer", repr(exc)))

        threads = [threading.Thread(target=prober, args=(t,)) for t in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            stop.wait(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads), errors
        assert min(probes) > 0 and graph.version[1] > 3 and kept_masses(cache)
        assert_cache_equivalent(cache, GraphIndexCache(graph))
        rebuilt = DSQL(LabeledGraph(list(graph.labels), list(graph.edges())), entry.default_config)
        assert [entry.estimate_cost(q) for q in battery] == [rebuilt.estimate(q) for q in battery]
        assert entry._rw._readers == 0


class TestConcurrentReadersWriter:
    def test_queries_race_mutation_bit_identically(self, mutable_server):
        """Every answer equals the pre- or post-mutation reference exactly."""
        _, client, graph = mutable_server
        queries = list(query_set(graph, 3, 2, seed=21))
        config = DSQLConfig(k=DEFAULT_K)

        def reference_answers(g):
            session = DSQL(
                LabeledGraph(list(g.labels), list(g.edges())),
                config=config,
            )
            return {
                i: session.query(q).to_dict()["embeddings"]
                for i, q in enumerate(queries)
            }

        before = reference_answers(graph)
        u, v = _absent_pair(graph)
        observations = []
        errors = []
        done = threading.Event()

        def reader(tid):
            try:
                while not done.is_set():
                    for i, q in enumerate(queries):
                        observations.append((i, client.query("tiny", q)["embeddings"]))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tid, repr(exc)))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.1)
            body = client.ingest("tiny", [["add_edge", u, v], ["add_vertex", "Z9"]])
            assert body["applied"] == 2
            time.sleep(0.2)
        finally:
            done.set()
            for t in threads:
                t.join()
        after = reference_answers(graph)
        assert not errors, errors
        assert observations
        bad = [
            (i, got)
            for i, got in observations
            if got != before[i] and got != after[i]
        ]
        assert not bad, bad[:3]


class TestPublicationIsARead:
    """A ``strategy="process"`` batch builds its pool and starts its workers
    under the entry's *read* lock, beside in-flight point queries — so doing
    that on a graph with pending deltas must move nothing those queries can
    see, and the workers must not depend on any lock those queries hold at
    the fork."""

    @staticmethod
    def _dirty_entry():
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = catalog.add_graph("tiny", tiny_graph(), source="fixture")
        u, v = _absent_pair(entry.graph)
        entry.mutate([("add_edge", u, v), ("add_vertex", "Z9")], compaction_threshold=None)
        return entry, (u, v)

    @staticmethod
    def _rebuilt_answers(entry, queries):
        graph = entry.graph
        rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
        reference = DSQL(rebuilt, config=entry.default_config)
        return [r.to_dict() for r in reference.query_many(queries)]

    def test_process_batch_on_a_dirty_graph_moves_nothing(self):
        entry, (u, v) = self._dirty_entry()
        graph, queries = entry.graph, tiny_queries(count=4, seed=31)
        for query in tiny_queries(count=3, seed=32):
            entry.answer(query)  # plans worth keeping
        plans = graph.index_cache().plan_cache
        version, size, deltas = graph.version, plans.info()["size"], graph.delta_size
        assert version[1] == 2 and size > 0 and deltas == 1

        results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert (graph.version, graph.delta_size) == (version, deltas)
        assert graph.index_cache().plan_cache is plans and plans.info()["size"] >= size
        assert report.strategy == "process" and report.chunks_retried == 0
        assert [r.to_dict() for r in results] == self._rebuilt_answers(entry, queries)

        # A later write reaches the same workers by replay — for a caller
        # that holds an executor across it; the entry's own batches each
        # start workers at the version they find.
        session = DSQL(graph, config=replace(entry.default_config, query_cache_size=0))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(queries)
            assert [r.to_dict() for r in results] == self._rebuilt_answers(entry, queries)
            pool = executor.pool
            assert (graph.version[0], pool._base_seq) == version
            summary = entry.mutate([("remove_edge", u, v)], compaction_threshold=None)
            assert summary == (1, False, (version[0], 3))
            results = executor.run(queries)
            assert executor.last_report.chunks_retried == 0
            assert executor.pool is pool and not pool.stale
            assert graph.version == (version[0], 3)
            assert [r.to_dict() for r in results] == self._rebuilt_answers(entry, queries)
        results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert report.chunks_retried == 0
        assert [r.to_dict() for r in results] == self._rebuilt_answers(entry, queries)

    def test_worker_killed_between_batches_fails_no_later_batch(self):
        """Through the entry there is no "between batches": the workers of a
        process batch are gone when ``answer_batch`` returns, and the next
        batch starts its own. A caller that holds an executor across batches
        has a pool that can break while idle; the next batch replaces it."""
        entry, _ = self._dirty_entry()
        queries = tiny_queries(count=4, seed=35)
        want = self._rebuilt_answers(entry, queries)
        census = ProcessCensus()
        seen = set()
        for _ in range(2):
            entry.session()._query_cache.clear()
            results, report = entry.answer_batch(queries, strategy="process", jobs=2)
            assert [r.to_dict() for r in results] == want and report.chunks_retried == 0
            pids = {pid for pid, _ in report.per_worker}
            assert pids and not pids & seen and not pids & census.new_children()
            seen |= pids
        assert census.settled(), census.report()

        session = DSQL(entry.graph, config=replace(entry.default_config, query_cache_size=0))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            executor.run(queries)
            pool, first_pids = executor.pool, {pid for pid, _ in executor.last_report.per_worker}
            os.kill(min(first_pids), signal.SIGKILL)
            assert wait_until(lambda: pool.broken)
            for _ in range(2):
                results, report = executor.run(queries), executor.last_report
                assert [r.to_dict() for r in results] == want
                assert report.chunks_retried == 0
                assert report.per_worker and not {p for p, _ in report.per_worker} & first_pids
            assert executor.pool is not pool
        assert census.settled(), census.report()

    def test_point_queries_beside_a_publishing_batch_see_one_version(self):
        entry, _ = self._dirty_entry()
        graph = entry.graph
        batch = tiny_queries(count=4, seed=33)
        points = tiny_queries(count=24, seed=34)
        version = graph.version
        plans = graph.index_cache().plan_cache
        seen, errors = [], []
        started, done = threading.Barrier(4), threading.Event()

        def reader(tid):
            try:
                started.wait(timeout=30)
                # Distinct queries per thread: misses, so the search itself
                # (not a memo hit) runs beside the publication.
                for query in points[tid::3] * 4:
                    before = graph.version
                    result = entry.answer(query)
                    seen.append((before, graph.version, graph.index_cache().plan_cache is plans))
                    assert result.embeddings is not None
                    if done.is_set():
                        break
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tid, repr(exc)))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            started.wait(timeout=30)
            results, report = entry.answer_batch(batch, strategy="process", jobs=2)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            alive = [thread.name for thread in threads if thread.is_alive()]
        assert not alive and not errors, (alive, errors)
        assert report.chunks_retried == 0
        assert [r.to_dict() for r in results] == self._rebuilt_answers(entry, batch)
        assert len(seen) >= 3 and set(seen) == {(version, version, True)}
        assert graph.version == version and graph.delta_size == 1
