"""Tests for :mod:`repro.parallel.pool` — the persistent worker pool.

What the pool must deliver over the old per-batch fork dance: workers
survive across batches (same pids, warm sessions), worker metrics flow back
into the parent registry, state is scoped per pool (two executors running
process batches concurrently do not interfere — the regression that
motivated killing the module-global session hand-off), and teardown leaves
nothing behind: a pool owns its worker processes and no segment, file or fd
beyond them. A worker is started with the graph — inherited under ``fork``,
pickled under ``spawn`` — and the equivalence case runs on both.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro.parallel.pool as pool_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.observability import Instrumentation
from repro.observability.metrics import MetricsRegistry
from repro.parallel import BatchExecutor, WorkerPool
from repro.queries.generator import query_set
from tests.conftest import ProcessCensus, held_by_another_thread, wait_until
from tests.parallel.conftest import START_METHODS

K = 4


def _workload(name: str, scale: float = 0.0001, queries: int = 6, seed: int = 17):
    graph = make_dataset(name, scale=scale, seed=13)
    return graph, list(query_set(graph, 3, queries, seed=seed))


def _sleep_forever(payload):  # pragma: no cover - runs in (killed) workers
    """Stand-in chunk body simulating a wedged worker. Module-level so the
    call queue can pickle it by reference."""
    time.sleep(600)


def _chunk_of(queries):
    return [(q.canonical_key(), list(q.labels), list(q.edges())) for q in queries]


def _raising_init(graph, config):  # pragma: no cover - runs in (dying) workers
    """Stand-in pool initializer that fails in every worker."""
    raise RuntimeError("initializer failed")


def check_chunk_answers_match_serial():
    graph, queries = _workload("dblp")
    config = DSQLConfig(k=K)
    reference = {
        q.canonical_key(): DSQL(graph, config=config).query(q) for q in queries
    }
    with WorkerPool(graph, config, jobs=2) as pool:
        pid, pairs, counters = pool.submit(_chunk_of(queries)).result(timeout=120)
        assert {key: r.to_dict() for key, r in pairs} == {
            key: r.to_dict() for key, r in reference.items()
        }
        assert pid > 0 and pid != os.getpid()
        assert counters  # the worker searched, so counters are non-empty


def _rebuilt_answers(graph, config, queries):
    rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
    return [r.to_dict() for r in DSQL(rebuilt, config=config).query_many(queries)]


class TestWorkerPool:
    def test_chunk_answers_match_serial(self):
        """On the start method the platform selects."""
        check_chunk_answers_match_serial()

    def test_descriptor_is_attachable_while_pool_lives(self):
        """Was: the pool's descriptor attaches while the pool lives. A pool
        has no descriptor and owns no segment: while it lives — workers
        started, chunks answered — nothing appears under ``/dev/shm``, and
        ``shared_nbytes`` says so."""
        graph, queries = _workload("dblp")
        census = ProcessCensus()
        with WorkerPool(graph, DSQLConfig(k=K), jobs=2) as pool:
            pool.submit(_chunk_of(queries)).result(timeout=120)
            assert not hasattr(pool, "descriptor")
            assert pool.shared_nbytes == 0
            assert len(census.new_children()) == 2 and not census.new_shm()

    def test_close_unlinks_segments(self):
        """Was: close() unlinks the segments. With none to unlink, close()
        leaves what it must: no child process, no ``/dev/shm`` entry, the
        parent's fd count back where it started."""
        graph, queries = _workload("dblp")
        census = ProcessCensus()
        pool = WorkerPool(graph, DSQLConfig(k=K), jobs=2)
        pool.submit(_chunk_of(queries)).result(timeout=120)
        assert census.new_children()
        pool.close()
        assert census.settled(), census.report()
        pool.close()  # idempotent

    def test_write_between_construction_and_first_submit(self):
        """The fork happens at the first submit, not at construction, but a
        pool serves the version it was built at: a write in between makes
        it stale before any worker starts, and the batch runs on a
        replacement at the new version, retrying nothing."""
        graph, queries = _workload("dblp")
        config = DSQLConfig(k=K, query_cache_size=0)
        session = DSQL(graph, config=config)
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            pool = executor._ensure_pool()
            u = 0
            v = next(x for x in range(1, graph.num_vertices) if not graph.has_edge(u, x))
            graph.mutate([("add_vertex", "zz"), ("add_edge", u, v)])
            assert graph.version[1] == pool.version[1] + 2 and pool.stale
            results = executor.run(queries)
            assert executor.pool is not pool and executor.pool.version == graph.version
            assert executor.last_report.chunks_retried == 0
            assert [r.to_dict() for r in results] == _rebuilt_answers(graph, config, queries)

    def test_leaked_pool_does_not_hang_interpreter_exit(self):
        """Regression: a pool leaked until interpreter shutdown used to
        deadlock exit — the executor's manager thread joined workers whose
        shutdown sentinel could no longer be delivered once multiprocessing
        had reaped the call queue's feeder thread. The atexit reaper kills
        leaked workers, so this script must exit promptly on its own."""
        script = textwrap.dedent(
            """
            from repro.core.config import DSQLConfig
            from repro.datasets.registry import make_dataset
            from repro.parallel import WorkerPool
            from repro.queries.generator import query_set

            graph = make_dataset("dblp", scale=0.0001, seed=13)
            queries = list(query_set(graph, 3, 2, seed=17))
            pool = WorkerPool(graph, DSQLConfig(k=4), jobs=2)
            chunk = [
                (q.canonical_key(), list(q.labels), list(q.edges()))
                for q in queries
            ]
            pool.submit(chunk).result()  # workers are alive now
            print("OK", flush=True)
            # deliberately no pool.close(): leak it into interpreter exit
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_graceful_close_gives_up_on_wedged_worker(self, monkeypatch):
        """Regression: fork can wedge a worker at birth (a lock another
        parent thread held at fork time stays locked forever in the child),
        and a wedged worker never reads its shutdown sentinel. A graceful
        close must bound its join and kill stragglers, not hang forever."""
        graph, queries = _workload("dblp", queries=2)
        monkeypatch.setattr(pool_mod, "_run_chunk", _sleep_forever)
        monkeypatch.setattr(pool_mod.WorkerPool, "shutdown_grace_s", 0.5)
        census = ProcessCensus()
        pool = WorkerPool(graph, DSQLConfig(k=K), jobs=1)
        pool.submit(_chunk_of(queries))  # the worker wedges in its chunk
        start = time.monotonic()
        pool.close()  # graceful path: grace window, then kill
        assert time.monotonic() - start < 30
        assert census.settled(), census.report()  # the straggler was reaped


@pytest.mark.parametrize("start_method", START_METHODS, indirect=True)
class TestEitherStartMethod:
    """The transport rule on both sides of the platform choice."""

    def test_chunk_answers_match_serial(self, start_method):
        check_chunk_answers_match_serial()

    def test_process_batch_matches_serial_query_many(self, start_method):
        graph, queries = _workload("dblp", queries=8)
        batch = queries + queries[:4]
        reference = DSQL(graph, config=DSQLConfig(k=K))
        want = [r.to_dict() for r in reference.query_many(batch)]
        session = DSQL(graph, config=DSQLConfig(k=K))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(batch)
            assert executor.last_report.chunks_retried == 0
            assert len(executor.last_report.per_worker) >= 1
        assert [r.to_dict() for r in results] == want
        assert [r.from_cache for r in results] == [d["from_cache"] for d in want]
        assert session.stats.query_cache_hits == reference.stats.query_cache_hits
        assert session.stats.query_cache_misses == reference.stats.query_cache_misses


class TestWedgedPoolDegradation:
    def test_wedged_pool_times_out_and_batch_degrades(self, monkeypatch):
        """A pool whose workers are all stuck must not hang run(): the chunk
        wait times out, the pool is killed, and the batch completes serially
        with results identical to query_many."""
        graph, queries = _workload("dblp", queries=4)
        monkeypatch.setattr(pool_mod, "_run_chunk", _sleep_forever)
        monkeypatch.setattr(BatchExecutor, "pool_timeout_s", 2.0)
        reference = [
            r.to_dict() for r in DSQL(graph, config=DSQLConfig(k=K)).query_many(queries)
        ]
        session = DSQL(graph, config=DSQLConfig(k=K))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(queries)
            assert [r.to_dict() for r in results] == reference
            report = executor.last_report
            assert report.chunks_retried == report.chunks > 0
            assert executor.pool is None  # the wedged pool was discarded


class TestBrokenBetweenBatches:
    def test_worker_killed_between_batches_costs_no_batch(self):
        """A worker SIGKILLed while the pool is idle breaks the executor
        underneath, which then refuses every submit. The next batch must
        notice before dispatch, start fresh workers and complete on them —
        not raise ``BrokenProcessPool`` out of ``run()``."""
        graph, queries = _workload("dblp", queries=8)
        config = DSQLConfig(k=K, query_cache_size=0)
        want = [r.to_dict() for r in DSQL(graph, config=config).query_many(queries)]
        census = ProcessCensus()
        with BatchExecutor(DSQL(graph, config=config), strategy="process", jobs=2) as executor:
            assert [r.to_dict() for r in executor.run(queries)] == want
            pool = executor.pool
            first_pids = {pid for pid, _ in executor.last_report.per_worker}
            os.kill(min(first_pids), signal.SIGKILL)
            assert wait_until(lambda: pool.broken)
            results = executor.run(queries)
            assert [r.to_dict() for r in results] == want
            report = executor.last_report
            assert report.chunks_retried == 0 and report.searches == len(queries)
            second_pids = {pid for pid, _ in report.per_worker}
            assert second_pids and not second_pids & first_pids
            assert executor.pool is not pool and not executor.pool.broken
            assert not census.new_shm()
        assert census.settled(), census.report()

    def test_submit_on_a_pool_that_broke_after_the_check_is_retried_serially(self):
        """The same death racing the pre-dispatch check: the submit guard
        sends the refused chunks down the serial retry."""
        graph, queries = _workload("dblp", queries=4)
        config = DSQLConfig(k=K, query_cache_size=0)
        want = [r.to_dict() for r in DSQL(graph, config=config).query_many(queries)]
        with BatchExecutor(DSQL(graph, config=config), strategy="process", jobs=2) as executor:
            executor.run(queries)
            pool = executor.pool
            os.kill(executor.last_report.per_worker[0][0], signal.SIGKILL)
            assert wait_until(lambda: pool.broken)
            chunks = executor._chunk(_chunk_of(queries))
            results, failed = executor._dispatch_pool(pool, chunks)
            assert results == {} and failed == chunks
            assert [r.to_dict() for r in executor.run(queries)] == want

    def test_failing_initializer_degrades_and_leaves_nothing(self, monkeypatch):
        """Workers that die in their initializer break the pool at its first
        batch: the batch completes serially, the pool is discarded, and no
        child, segment or fd is left."""
        graph, queries = _workload("dblp", queries=4)
        config = DSQLConfig(k=K)
        want = [r.to_dict() for r in DSQL(graph, config=config).query_many(queries)]
        monkeypatch.setattr(pool_mod, "_init_worker", _raising_init)
        census = ProcessCensus()
        with BatchExecutor(DSQL(graph, config=config), strategy="process", jobs=2) as executor:
            results = executor.run(queries)
            assert [r.to_dict() for r in results] == want
            report = executor.last_report
            assert report.chunks_retried == report.chunks > 0
            assert executor.pool is None
            assert not census.new_shm()
        assert census.settled(), census.report()


class TestNoInheritedLock:
    """A fork freezes every lock another parent thread holds at that moment;
    a worker that waited on one would never wake. Point queries run beside
    process batches under the service's read lock, so this is the ordinary
    case, not a corner. Workers must therefore acquire no lock object that
    existed in the parent — their cache is built in the worker."""

    def test_batch_completes_while_a_parent_thread_holds_every_cache_lock(self, monkeypatch):
        graph, queries = _workload("dblp", queries=8)
        config = DSQLConfig(k=K, query_cache_size=0)
        want = [r.to_dict() for r in DSQL(graph, config=config).query_many(queries)]
        cache = graph.index_cache()
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        registry.counter("cache.pool.hit")
        locks = [
            cache._lock, cache.plan_cache._lock,
            registry._lock, registry.counter("cache.pool.hit")._lock,
        ]
        # A worker that did inherit a held lock wedges; the executor then
        # retries its chunk in the parent, which waits for the holder. The
        # bounds make that a failure in seconds (chunks_retried > 0).
        monkeypatch.setattr(BatchExecutor, "pool_timeout_s", 3.0)
        try:
            with held_by_another_thread(locks, bound_s=20.0):
                start = time.monotonic()
                # An uninstrumented session: the parent's own share of a
                # process batch (keys, memo replay, dispatch) takes none of
                # these locks.
                session = DSQL(graph, config=config)
                with BatchExecutor(session, strategy="process", jobs=2) as executor:
                    results = executor.run(queries)
                    report = executor.last_report
                elapsed = time.monotonic() - start
        finally:
            cache.attach_metrics(None)
        assert [r.to_dict() for r in results] == want
        assert report.chunks_retried == 0 and len(report.per_worker) >= 1
        assert elapsed < 30


class TestExecutorPoolPersistence:
    def test_pool_and_worker_pids_survive_across_batches(self):
        graph, queries = _workload("dblp", queries=8)
        session = DSQL(graph, config=DSQLConfig(k=K, query_cache_size=0))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            executor.run(queries)
            first_pool = executor.pool
            first_pids = {pid for pid, _ in executor.last_report.per_worker}
            executor.run(queries)
            assert executor.pool is first_pool
            second_pids = {pid for pid, _ in executor.last_report.per_worker}
            assert first_pids and second_pids <= first_pids

    def test_per_worker_rows_cover_all_searches(self):
        graph, queries = _workload("dblp", queries=8)
        session = DSQL(graph, config=DSQLConfig(k=K))
        with BatchExecutor(
            session, strategy="process", jobs=2, chunk_size=2
        ) as executor:
            executor.run(queries)
            report = executor.last_report
            assert sum(n for _, n in report.per_worker) == report.searches

    def test_worker_counters_merged_into_parent_registry(self):
        graph, queries = _workload("dblp")
        instr = Instrumentation()
        session = DSQL(graph, config=DSQLConfig(k=K), instrumentation=instr)
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            executor.run(queries)
        merged = instr.metrics.counters_snapshot()
        # The searches ran in worker processes; without the merge the
        # parent registry would only hold executor.* bookkeeping.
        assert any(name.startswith("search.") for name in merged), merged

    def test_unavailable_pool_degrades_to_in_process(self, monkeypatch):
        graph, queries = _workload("dblp")

        def refuse(graph, config, jobs):
            raise OSError("no usable multiprocessing start method")

        monkeypatch.setattr(
            "repro.parallel.executor.WorkerPool",
            refuse,
        )
        session = DSQL(graph, config=DSQLConfig(k=K))
        reference = [
            r.to_dict() for r in DSQL(graph, config=DSQLConfig(k=K)).query_many(queries)
        ]
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(queries)
            assert [r.to_dict() for r in results] == reference
            report = executor.last_report
            assert report.chunks_retried == report.chunks > 0
            assert executor.pool is None


class TestConcurrentExecutors:
    @pytest.mark.slow
    def test_two_process_executors_race_on_different_graphs(self):
        """Regression: the old module-global session hand-off let one
        executor's fork inherit the *other* executor's session when two
        process batches overlapped. Pools scope worker state via initargs,
        so racing batches on different graphs must both match serial."""
        graph_a, queries_a = _workload("dblp", queries=6, seed=17)
        graph_b, queries_b = _workload("yeast", queries=6, seed=23)
        ref_a = [
            r.to_dict() for r in DSQL(graph_a, config=DSQLConfig(k=K)).query_many(queries_a)
        ]
        ref_b = [
            r.to_dict() for r in DSQL(graph_b, config=DSQLConfig(k=K)).query_many(queries_b)
        ]
        out = {}
        errors = []
        barrier = threading.Barrier(2)

        def run(name, graph, queries):
            try:
                session = DSQL(graph, config=DSQLConfig(k=K))
                with BatchExecutor(
                    session, strategy="process", jobs=2, chunk_size=1
                ) as executor:
                    barrier.wait(timeout=30)
                    for _ in range(3):
                        session._query_cache.clear()
                        out[name] = [r.to_dict() for r in executor.run(queries)]
            except Exception as exc:  # pragma: no cover - failure surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run, args=("a", graph_a, queries_a)),
            threading.Thread(target=run, args=("b", graph_b, queries_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert out["a"] == ref_a
        assert out["b"] == ref_b
