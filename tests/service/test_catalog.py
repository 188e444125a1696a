"""Catalog tests: loading specs, warm sessions, and memo-correct answering."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

import repro.parallel.pool as pool_mod
import repro.service.catalog as catalog_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.exceptions import ConfigError, DatasetError
from repro.graph.io import dump_edge_list, dump_json
from repro.graph.labeled_graph import LabeledGraph
from repro.indexes.graph_cache import GraphIndexCache
from repro.observability import Instrumentation
from repro.observability.tracing import JsonlSink, Tracer, read_jsonl
from repro.parallel import BatchExecutor
from repro.service import GraphCatalog, QueryService, ServiceError, build_catalog
from repro.service.accesslog import read_access_log
from repro.service.catalog import CatalogEntry
from repro.service.schemas import query_graph_to_json
from tests.conftest import ProcessCensus, disk_full_on_write
from tests.indexes.test_delta_repair import assert_cache_equivalent
from tests.parallel.test_pool import _raising_init
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries


@pytest.fixture(scope="module")
def entry():
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    return catalog.add_graph("tiny", tiny_graph())


class TestCatalogPopulation:
    def test_add_graph_and_lookup(self):
        catalog = GraphCatalog()
        catalog.add_graph("g", tiny_graph())
        assert "g" in catalog
        assert len(catalog) == 1
        assert catalog.get("g").name == "g"

    def test_unknown_graph_is_404(self):
        catalog = GraphCatalog()
        catalog.add_graph("g", tiny_graph())
        with pytest.raises(ServiceError) as info:
            catalog.get("nope")
        assert (info.value.status, info.value.code) == (404, "unknown_graph")
        assert "'g'" in info.value.message  # the body names what *is* loaded

    def test_duplicate_and_empty_names_refused(self):
        catalog = GraphCatalog()
        catalog.add_graph("g", tiny_graph())
        with pytest.raises(ConfigError):
            catalog.add_graph("g", tiny_graph())
        with pytest.raises(ConfigError):
            catalog.add_graph("", tiny_graph())

    def test_add_dataset_with_scale(self):
        catalog = GraphCatalog(seed=0)
        entry = catalog.add_dataset("yeast@0.1")
        assert entry.source == "dataset:yeast@0.1"
        reference = tiny_graph()
        assert entry.graph.num_vertices == reference.num_vertices
        assert entry.graph.num_edges == reference.num_edges

    def test_bad_dataset_scale(self):
        with pytest.raises(DatasetError):
            GraphCatalog().add_dataset("yeast@huge")

    def test_add_file_both_formats(self, tmp_path):
        graph = tiny_graph()
        edge_path = tmp_path / "g.txt"
        json_path = tmp_path / "g.json"
        dump_edge_list(graph, edge_path)
        dump_json(graph, json_path)
        catalog = GraphCatalog()
        from_edges = catalog.add_file(f"edges={edge_path}")
        from_json = catalog.add_file(f"json={json_path}")
        for entry in (from_edges, from_json):
            assert entry.graph.num_vertices == graph.num_vertices
            assert entry.graph.num_edges == graph.num_edges

    @pytest.mark.parametrize("spec", ["nopath", "=path", "name=", "name=/no/such/file"])
    def test_bad_file_specs(self, spec):
        with pytest.raises(DatasetError):
            GraphCatalog().add_file(spec)

    def test_build_catalog_reports_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        dump_edge_list(tiny_graph(), path)
        catalog, lines = build_catalog(
            datasets=["yeast@0.1"], graph_files=[f"extra={path}"]
        )
        assert catalog.names() == ["extra", "yeast"]
        assert len(lines) == 2
        assert all("|V|=" in line for line in lines)


class TestSessions:
    def test_default_session_pinned(self, entry):
        assert entry.session() is entry.default_session
        assert entry.session(entry.default_config) is entry.default_session

    def test_override_sessions_cached(self, entry):
        config = entry.request_config(k=3)
        assert entry.session(config) is entry.session(config)
        assert entry.session(config) is not entry.default_session

    def test_session_lru_never_evicts_default(self):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        small = CatalogEntry(
            "tiny", tiny_graph(), catalog.default_config, max_sessions=2
        )
        for k in (2, 3, 4):  # one more distinct config than the LRU holds
            small.session(small.request_config(k=k))
        assert small.describe()["sessions"] == 1 + 2
        assert small.session() is small.default_session

    def test_request_config_overrides(self, entry):
        config = entry.request_config(k=3, alpha=0.25, time_budget_ms=500)
        assert (config.k, config.alpha, config.time_budget_ms) == (3, 0.25, 500)
        assert entry.request_config() is entry.default_config

    def test_bad_override_is_400_invalid_config(self, entry):
        with pytest.raises(ServiceError) as info:
            entry.request_config(alpha=-1.0)
        assert (info.value.status, info.value.code) == (400, "invalid_config")


class TestAnswering:
    def test_answers_match_direct_session(self, entry):
        queries = tiny_queries(count=3)
        reference = DSQL(tiny_graph(), config=entry.default_config)
        for query in queries:
            got = entry.answer(query)
            want = reference.query(query)
            assert got.embeddings == want.embeddings
            assert got.coverage == want.coverage

    def test_repeat_answer_is_memo_hit(self, entry):
        query = tiny_queries(count=1, seed=7)[0]
        first = entry.answer(query)
        second = entry.answer(query)
        assert not first.from_cache
        assert second.from_cache
        assert second.embeddings == first.embeddings

    def test_override_config_does_not_share_memo(self, entry):
        query = tiny_queries(count=1, seed=8)[0]
        entry.answer(query)  # populate the default-config memo
        other = entry.answer(query, entry.request_config(k=2))
        assert not other.from_cache  # distinct session, distinct memo
        assert other.k == 2

    def test_answer_batch_matches_query_many(self, entry):
        queries = tiny_queries(count=4, seed=9)
        results, report = entry.answer_batch(queries)
        reference = DSQL(tiny_graph(), config=entry.default_config)
        expected = reference.query_many(queries)
        assert [r.embeddings for r in results] == [r.embeddings for r in expected]
        assert report.strategy == "serial"
        assert report.batch == len(queries)


def _die_in_worker(payload):  # pragma: no cover - runs in (killed) workers
    """Stand-in chunk body: the worker is SIGKILLed mid-batch. Module-level
    so the call queue can pickle it by reference."""
    os.kill(os.getpid(), signal.SIGKILL)


def _fresh_entry(**config):
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K, **config))
    return catalog.add_graph("tiny", tiny_graph())


def _recorded_executors(monkeypatch):
    """Every ``BatchExecutor`` the catalog builds from here on, each with an
    ``events`` list of its ``run`` / ``close`` calls in order."""
    built = []

    class Recorded(BatchExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.events = []
            built.append(self)

        def run(self, queries):
            self.events.append("run")
            return super().run(queries)

        def close(self):
            self.events.append("close")
            super().close()

    monkeypatch.setattr(catalog_mod, "BatchExecutor", Recorded)
    return built


def _parked_executors(monkeypatch):
    """The first batch the catalog runs from here on parks inside
    ``executor.run`` — planned, not yet searched or replayed — until
    ``release`` is set; ``entered`` says it is there."""
    entered, release = threading.Event(), threading.Event()

    class Parked(BatchExecutor):
        def _search_parallel(self, need):
            if not entered.is_set():
                entered.set()
                assert release.wait(60)
            return super()._search_parallel(need)

    monkeypatch.setattr(catalog_mod, "BatchExecutor", Parked)
    return entered, release


class TestExecutorLeases:
    """An executor lives for one ``answer_batch`` call. The entry caches
    none, so there is no lease to take, no eviction to defer and nothing for
    the entry to close: a batch cannot have its executor closed from under
    it, and what a ``process`` batch starts is gone when the call returns.
    (The ids are from the executor cache whose lease discipline this class
    once pinned.)"""

    def test_eviction_defers_close_while_leased(self, monkeypatch):
        """One executor per call, closed by that call after its run — two
        shapes of request on one session share none."""
        entry = _fresh_entry()
        built = _recorded_executors(monkeypatch)
        queries = tiny_queries(count=3, seed=11)
        _, first = entry.answer_batch(queries, strategy="serial", jobs=1)
        _, second = entry.answer_batch(queries, strategy="process", jobs=2)
        _, third = entry.answer_batch(queries, strategy="process", jobs=2)
        assert [e.events for e in built] == [["run", "close"]] * 3
        assert len({id(e) for e in built}) == 3 and {e.session for e in built} == {entry.session()}
        assert [(r.strategy, r.searches) for r in (first, second, third)] == [
            ("serial", 3), ("process", 0), ("process", 0),
        ]
        held = [v for v in vars(entry).values() if isinstance(v, (BatchExecutor, dict, set))]
        assert held == [entry._sessions]  # the per-config session LRU, nothing else
        assert "executors" not in entry.describe()

    def test_entry_close_defers_leased_executor(self, tmp_path):
        """There is no ``close`` on the entry or the catalog, because there
        is nothing left for one to release: after point, batch and process
        traffic the census is already settled, and ``QueryService.close``
        flushes and closes the trace sink and the access log as before."""
        census = ProcessCensus()
        instrumentation = Instrumentation(tracer=Tracer(JsonlSink(tmp_path / "trace.jsonl")))
        catalog = GraphCatalog(
            default_config=DSQLConfig(k=DEFAULT_K), instrumentation=instrumentation
        )
        entry = catalog.add_graph("tiny", tiny_graph())
        service = QueryService(catalog, access_log=tmp_path / "access.jsonl")
        assert not hasattr(entry, "close") and not hasattr(catalog, "close")
        wire = [query_graph_to_json(q) for q in tiny_queries(count=3, seed=12)]
        point = {"graph": "tiny", "query": wire[0]}
        batch = {"graph": "tiny", "queries": wire}
        assert service.handle_post("/v1/query", lambda: point)[0] == 200
        status, body, _ = service.handle_post("/v1/batch", lambda: batch)
        assert (status, body["cache_hits"], body["executor"]["searches"]) == (200, 1, 2)
        _, report = entry.answer_batch(tiny_queries(count=3, seed=14), strategy="process", jobs=2)
        assert report.per_worker and report.chunks_retried == 0
        assert census.new_children() == set()
        service.close()
        assert service.access_log._file.closed and instrumentation.tracer.sink._file.closed
        assert census.settled(), census.report()
        assert [r["status"] for r in read_access_log(tmp_path / "access.jsonl")] == [200, 200]
        names = {event["name"] for event in read_jsonl(tmp_path / "trace.jsonl")}
        assert {"query", "executor.batch"} <= names

    def test_unleased_eviction_closes_immediately(self, monkeypatch):
        """No resource outlives a call: a ``process`` batch through the
        entry leaves no child, ``/dev/shm`` name or fd when ``answer_batch``
        returns — on a normal return, with a worker killed mid-batch, and
        with an initializer that fails in every worker."""
        entry = _fresh_entry(query_cache_size=0)
        queries = tiny_queries(count=4, seed=13)
        reference = DSQL(tiny_graph(), config=entry.default_config)
        want = [r.to_dict() for r in reference.query_many(queries)]
        census = ProcessCensus()

        results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert [r.to_dict() for r in results] == want
        assert report.chunks_retried == 0 and report.per_worker
        assert census.settled(), census.report()

        with monkeypatch.context() as patch:
            patch.setattr(pool_mod, "_run_chunk", _die_in_worker)
            results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert [r.to_dict() for r in results] == want
        assert report.chunks_retried == report.chunks > 0
        assert census.settled(), census.report()

        with monkeypatch.context() as patch:
            patch.setattr(pool_mod, "_init_worker", _raising_init)
            results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert [r.to_dict() for r in results] == want
        assert report.chunks_retried == report.chunks > 0
        assert census.settled(), census.report()

        # ... and the next batch on the entry is none the worse for either.
        results, report = entry.answer_batch(queries, strategy="process", jobs=2)
        assert [r.to_dict() for r in results] == want and report.chunks_retried == 0
        assert census.settled(), census.report()

    def test_concurrent_batches_across_eviction_pressure(self):
        """Two shapes of batch run beside each other on one session."""
        entry = _fresh_entry()
        queries = tiny_queries(count=3, seed=11)
        expected = [
            r.embeddings
            for r in DSQL(tiny_graph(), config=entry.default_config).query_many(queries)
        ]
        errors = []

        def run_shape(strategy, jobs):
            try:
                for _ in range(5):
                    results, report = entry.answer_batch(queries, strategy=strategy, jobs=jobs)
                    assert [r.embeddings for r in results] == expected
                    assert (report.strategy, report.batch) == (strategy, len(queries))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run_shape, args=shape)
            for shape in (("serial", 1), ("process", 2))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert errors == [] and not any(t.is_alive() for t in threads)
        stats = entry.session().stats
        assert stats.query_cache_hits + stats.query_cache_misses == 2 * 5 * len(queries)


class TestBatchHoldsNobody:
    """The result memo locks itself, so a batch holds nobody: point queries
    and other batches on the same graph share only the entry's read lock
    and the memo's own microsecond sections with it."""

    def test_point_queries_and_a_second_batch_return_beside_a_parked_batch(self, monkeypatch):
        entry = _fresh_entry()
        queries = tiny_queries(count=6, seed=71)
        warm, cold, rest = queries[0], queries[1], queries[2:]
        reference = DSQL(tiny_graph(), config=entry.default_config).query_many(queries)
        want = [(r.embeddings, r.coverage) for r in reference]
        entry.answer(warm)
        entered, release = _parked_executors(monkeypatch)
        out = {}

        def parked_batch():
            out["first"] = entry.answer_batch(queries, strategy="process", jobs=2)

        def beside():
            out["hit"] = entry.answer(warm)
            out["miss"] = entry.answer(cold)
            out["second"] = entry.answer_batch(rest, strategy="process", jobs=2)

        first, other = threading.Thread(target=parked_batch), threading.Thread(target=beside)
        first.start()
        try:
            assert entered.wait(30)
            other.start()
            other.join(20)
            held = other.is_alive()
        finally:
            release.set()
            first.join(60)
            other.join(60)
        assert not held, "a point query or a second batch waited for the parked batch"
        assert not first.is_alive() and not other.is_alive()
        assert (out["hit"].from_cache, out["miss"].from_cache) == (True, False)
        assert [(r.embeddings, r.coverage) for r in (out["hit"], out["miss"])] == want[:2]
        results, report = out["second"]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in reference[2:]]
        assert (report.searches, report.chunks_retried) == (4, 0)
        # The parked batch planned the five searches the memo lacked, ran
        # them, and replays into a memo the others filled meanwhile: every
        # answer is a hit, and equal.
        results, report = out["first"]
        assert [(r.embeddings, r.coverage) for r in results] == want
        assert [r.from_cache for r in results] == [True] * 6 and report.searches == 5
        stats = entry.session().stats
        assert (stats.query_cache_misses, stats.query_cache_hits) == (1 + 1 + 4, 1 + 6)

    def test_readers_batches_and_a_writer_interleave(self):
        """Four readers on a two-entry memo (so evictions happen), a serial
        and a process batch loop whose batches carry more distinct keys than
        the cap, and one writer, ~2 s under a 0.1 ms switch interval. Every
        answer equals a from-scratch reference at a version it was answered
        at, every answer handed out is one hit or one miss, the repaired
        index cache equals a rebuild, and no child, thread or fd is left."""
        census, threads_before = ProcessCensus(), threading.active_count()
        entry = _fresh_entry(query_cache_size=2)
        graph, session = entry.graph, entry.session()
        queries = tiny_queries(count=5, seed=81)
        toggled = [
            (0, v) for v in range(1, graph.num_vertices) if not graph.has_edge(0, v)
        ][:3]
        epoch, base_seq = graph.version
        answers, errors, stop = [], [], threading.Event()

        def record(indices, answer):
            before = graph.version[1]
            results = answer()
            answers.append((before, graph.version[1], indices, results))

        def reader(tid):
            i = tid
            while not stop.is_set():
                index = i % len(queries)
                record([index], lambda: [entry.answer(queries[index])])
                i += 1 + tid

        def batcher(strategy):
            indices = list(range(len(queries))) + [0, 1]
            batch = [queries[i] for i in indices]
            while not stop.is_set():
                record(indices, lambda: entry.answer_batch(batch, strategy=strategy, jobs=2)[0])

        def writer():
            # Write i (1-based) toggles edge (i - 1) mod 3: the graph after
            # any number of writes is a function of that number.
            i = 0
            while not stop.is_set():
                u, v = toggled[i % 3]
                op = "remove_edge" if graph.has_edge(u, v) else "add_edge"
                entry.mutate([(op, u, v)])
                i += 1
                time.sleep(0.01)

        def guarded(target, *args):
            def run():
                try:
                    target(*args)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append((target.__name__, repr(exc)))
                    stop.set()

            return threading.Thread(target=run)

        threads = [guarded(reader, tid) for tid in range(4)]
        threads += [guarded(batcher, "serial"), guarded(batcher, "process"), guarded(writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            stop.wait(2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(60)
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads), errors
        assert graph.version[0] == epoch and graph.version[1] > base_seq + 3

        references = {}

        def reference(writes, index):
            present = frozenset(e for j, e in enumerate(toggled) if (writes + 2 - j) // 3 % 2)
            if (present, index) not in references:
                edges = [e for e in tiny_graph().edges()] + sorted(present)
                rebuilt = LabeledGraph(list(graph.labels), edges)
                result = DSQL(rebuilt, config=entry.default_config).query(queries[index])
                references[present, index] = (result.embeddings, result.coverage, result.level)
            return references[present, index]

        handed_out = 0
        for before, after, indices, results in answers:
            assert len(results) == len(indices)
            handed_out += len(results)
            for index, result in zip(indices, results):
                got = (result.embeddings, result.coverage, result.level)
                assert any(
                    got == reference(seq - base_seq, index) for seq in range(before, after + 1)
                ), (before, after, index)
        assert len(answers) > 20 and len(references) > len(queries)
        stats = session.stats
        assert stats.query_cache_hits + stats.query_cache_misses == handed_out
        assert stats.query_cache_hits > 0 and len(session._query_cache) <= 2
        memo = entry.index_cache._pool_memo
        assert any(e.view is not None for e in memo.values())  # the searches asked for views
        assert_cache_equivalent(entry.index_cache, GraphIndexCache(graph))
        assert census.settled(), census.report()
        assert threading.active_count() == threads_before


class TestCalibrationPersistence:
    """serve --calibration-file: per-graph calibration out on drain, back at boot."""

    def test_save_then_load_on_a_fresh_catalog(self, tmp_path):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = catalog.add_graph("tiny", tiny_graph())
        catalog.add_graph("idle", tiny_graph())
        for query in tiny_queries(count=3, seed=21):
            entry.observe_cost(entry.estimate_cost(query), entry.answer(query))
        state = entry.index_cache.cost_estimator().snapshot()
        assert state.observations == 3
        path = tmp_path / "calibration.json"
        assert catalog.save_calibration(path) == ["tiny"]  # "idle" observed nothing

        fresh = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        fresh_entry = fresh.add_graph("tiny", tiny_graph())
        fresh.add_graph("other", tiny_graph())
        assert fresh.load_calibration(path) == ["tiny"]
        assert fresh_entry.index_cache.cost_estimator().snapshot() == state
        assert fresh.load_calibration(tmp_path / "absent.json") == []


class TestPlanCachePersistence:
    """serve --plan-cache-file: specs out on drain, eager recompile at boot."""

    @staticmethod
    def _warm_catalog():
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        entry = catalog.add_graph("tiny", tiny_graph())
        for query in tiny_queries(count=3, seed=21):
            entry.answer(query)
        return catalog, entry

    def test_save_and_load_round_trip(self, tmp_path):
        catalog, entry = self._warm_catalog()
        path = tmp_path / "plans.json"
        saved = catalog.save_plan_cache(path)
        assert saved == entry.index_cache.plan_cache.info()["size"] > 0

        cold = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        cold_entry = cold.add_graph("tiny", tiny_graph())
        warmed = cold.load_plan_cache(path)
        assert warmed == saved
        # Every request that compiled before boot is now a plan-cache hit.
        pc = cold_entry.index_cache.plan_cache
        hits = pc.info()["hits"]
        for query in tiny_queries(count=3, seed=21):
            cold_entry.answer(query)
        assert pc.info()["hits"] > hits
        assert pc.info()["misses"] == pc.info()["size"]  # only the warm pass compiled

    def test_save_file_is_json_with_graph_table(self, tmp_path):
        import json

        catalog, entry = self._warm_catalog()
        path = tmp_path / "plans.json"
        catalog.save_plan_cache(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert set(payload["graphs"]) == {"tiny"}
        for spec in payload["graphs"]["tiny"]:
            assert {"labels", "edges"} == set(spec)
        # Byte for byte: the specs are the plan cache's keys, coldest first.
        specs = [
            {"labels": list(labels), "edges": [list(e) for e in edges]}
            for _, (labels, edges) in entry.index_cache.plan_cache._memo
        ]
        want = {"version": 1, "graphs": {"tiny": specs}}
        assert path.read_text(encoding="utf-8") == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_a_failed_save_leaves_the_previous_file_whole(self, tmp_path, monkeypatch):
        """A write that dies after its file is opened (a kill, a full disk)
        must not leave the warm file truncated: it still warms every plan."""
        catalog, _ = self._warm_catalog()
        path = tmp_path / "plans.json"
        saved = catalog.save_plan_cache(path)
        before = path.read_bytes()
        with disk_full_on_write(monkeypatch):
            with pytest.raises(OSError):
                catalog.save_plan_cache(path)
        assert path.read_bytes() == before
        cold = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        cold.add_graph("tiny", tiny_graph())
        assert cold.load_plan_cache(path) == saved

    def test_missing_and_corrupt_files_warm_zero(self, tmp_path):
        catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        catalog.add_graph("tiny", tiny_graph())
        assert catalog.load_plan_cache(tmp_path / "absent.json") == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert catalog.load_plan_cache(bad) == 0
        for body in ('{"graphs": []}', "[]", "null", '"x"'):  # valid JSON, wrong shape
            bad.write_text(body, encoding="utf-8")
            assert catalog.load_plan_cache(bad) == 0, body

    def test_unknown_graphs_in_file_are_skipped(self, tmp_path):
        catalog, _ = self._warm_catalog()
        path = tmp_path / "plans.json"
        saved = catalog.save_plan_cache(path)

        other = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        other.add_graph("tiny", tiny_graph())
        other.add_graph("unrelated", tiny_graph())
        assert other.load_plan_cache(path) == saved

        renamed = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
        renamed.add_graph("different-name", tiny_graph())
        assert renamed.load_plan_cache(path) == 0
