"""Tests for :mod:`repro.parallel.pool` — the persistent worker pool.

What the pool must deliver over the old per-batch fork dance: workers
survive across batches (same pids, warm sessions), worker metrics flow back
into the parent registry, state is scoped per pool (two executors running
process batches concurrently do not interfere — the regression that
motivated killing the module-global session hand-off), and teardown frees
the shared segments.
"""

from __future__ import annotations

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
from repro.exceptions import SharedMemoryError
from repro.graph.shared import attach_graph
from repro.observability import Instrumentation
from repro.parallel import BatchExecutor, WorkerPool
from repro.queries.generator import query_set

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


class TestWorkerPool:
    def test_chunk_answers_match_serial(self):
        graph, queries = _workload("dblp")
        config = DSQLConfig(k=K)
        reference = {
            q.canonical_key(): DSQL(graph, config=config).query(q) for q in queries
        }
        with WorkerPool(graph, config, jobs=2) as pool:
            chunk = [
                (q.canonical_key(), list(q.labels), list(q.edges())) for q in queries
            ]
            pid, pairs, counters = pool.submit(chunk).result()
            assert {key: r.to_dict() for key, r in pairs} == {
                key: r.to_dict() for key, r in reference.items()
            }
            assert pid > 0
            assert counters  # the worker searched, so counters are non-empty

    def test_descriptor_is_attachable_while_pool_lives(self):
        graph, _ = _workload("dblp")
        with WorkerPool(graph, DSQLConfig(k=K), jobs=1) as pool:
            assert attach_graph(pool.descriptor).num_edges == graph.num_edges
            assert pool.shared_nbytes > 0

    def test_close_unlinks_segments(self):
        graph, _ = _workload("dblp")
        pool = WorkerPool(graph, DSQLConfig(k=K), jobs=1)
        descriptor = pool.descriptor
        pool.close()
        with pytest.raises(SharedMemoryError):
            attach_graph(descriptor)
        pool.close()  # idempotent

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
        pool = WorkerPool(graph, DSQLConfig(k=K), jobs=1)
        descriptor = pool.descriptor
        pool.submit(_chunk_of(queries))  # the worker wedges in its chunk
        start = time.monotonic()
        pool.close()  # graceful path: grace window, then kill
        assert time.monotonic() - start < 30
        with pytest.raises(SharedMemoryError):
            attach_graph(descriptor)  # segments were still unlinked


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
            raise SharedMemoryError("forced unavailable")

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
