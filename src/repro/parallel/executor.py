"""Batch executor: fan a query stream out over a worker pool.

:class:`BatchExecutor` answers a batch of queries against one
:class:`~repro.core.dsql.DSQL` session using one of two strategies:

``serial``
    Exactly ``session.query_many`` — the reference semantics. The search is
    pure Python and holds the GIL, so threads cannot run it in parallel (a
    two-thread pool answered batches 1.2-1.3x slower than this path, and
    was removed; see docs/performance.md).
``process``
    A persistent :class:`~repro.parallel.pool.WorkerPool`, created lazily on
    the first process batch and **reused for every batch after it until the
    graph is written to**; the first batch after a write starts fresh
    workers. Each worker is started with the graph (inherited under
    ``fork``, pickled once under ``spawn``), builds its own index cache over
    it and keeps its DSQL session — plan cache, candidate pools — warm
    across batches. Queries travel as plain ``(labels,
    edges)`` payloads; frozen :class:`~repro.core.result.DSQResult` objects
    come back together with each worker's counter snapshot, which is merged
    into the parent's metrics registry so ``search.*``/``kernel.dispatch.*``
    stay truthful.

Whatever the strategy, ``run`` returns results **in input order and
bit-identical to serial** ``session.query_many(queries)``: a process batch
asks the session which distinct query structures its memo lacks,
search those on a worker, then replay the batch in order through the
session's own memo step (:meth:`DSQL._memo_answer`) — ``compute`` hands
back the worker's result, or searches here when there is none — so LRU
contents, hit/miss counters and ``from_cache`` flags all evolve exactly as
a serial run's would, whatever else touches the memo beside the batch.
Determinism of the underlying search (fixed seeds, sorted iteration
everywhere) makes the worker-computed result equal to the one a serial run
would have computed in place. A key the memo held when the batch was planned
and evicted before its turn (more distinct keys than ``query_cache_size``
arriving on a warm memo) is searched serially in the replay, as a failed
chunk is; :attr:`ExecutorReport.searches` counts it.

Failure handling degrades gracefully: a chunk whose worker crashes (e.g. a
forked child OOM-killed, breaking the whole process pool) is re-run
serially in the parent, the broken pool is discarded, and the next batch
builds a fresh one — a batch always completes with full results. A pool
found broken or stale *before* dispatch — a worker died between batches, or
the graph was written to — is replaced first, and a submission the
replacement still refuses goes down the same serial path, as does a chunk a
worker refuses for being of another graph version than its copy. Wedges are
bounded the same way crashes are: chunk waits carry a generous timeout
(:attr:`BatchExecutor.pool_timeout_s`), and a pool that produces nothing
inside it — every worker stuck — is killed and its chunks re-run
serially. Platforms without a multiprocessing start method fall back to
in-process execution (counted as retried chunks).

Executors owning a process pool own worker processes; call
:meth:`BatchExecutor.close` (or use the executor as a context manager) when
done. Serial executors hold nothing and need no teardown.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.result import DSQResult
from repro.exceptions import ConfigError, StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.parallel.pool import WorkerPool

STRATEGIES = ("serial", "process")
"""Supported execution strategies, in escalating-isolation order."""

# Accepted for the frozen perfbench harness, whose parallel probe still
# passes it: the removed thread strategy, now an alias of serial.
_SERIAL_ALIAS = "thread"

logger = logging.getLogger("repro.parallel")

# Chunks per worker when auto-chunking: small enough to amortize dispatch,
# large enough that a straggler chunk cannot idle the rest of the pool long.
_CHUNKS_PER_JOB = 4

Key = Tuple


def default_jobs() -> int:
    """Worker count honoring CPU affinity (cgroup/taskset aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutorReport:
    """What one :meth:`BatchExecutor.run` call actually did.

    ``searches`` counts queries answered by running a search (distinct query
    structures the memo lacked, on a worker or in the replay); the remaining
    ``len(batch) - searches`` were replayed from the session memo.
    ``chunks_retried`` counts chunks
    whose worker failed and which were re-run serially in the parent.
    ``per_worker`` holds ``(pid, searches)`` rows for process batches —
    which worker answered how many distinct queries — and is empty for the
    serial strategy.
    """

    strategy: str
    jobs: int
    batch: int
    searches: int
    chunks: int
    chunks_retried: int
    per_worker: Tuple[Tuple[int, int], ...] = field(default=())


class BatchExecutor:
    """Answer query batches, serially or over a process pool, reproducibly.

    Parameters
    ----------
    graph:
        The data graph, or an existing :class:`DSQL` session to execute
        against (then ``config``/``k`` must be omitted).
    config, k:
        Forwarded to :class:`DSQL` when ``graph`` is a graph.
    strategy:
        One of :data:`STRATEGIES`.
    jobs:
        Worker count; defaults to the CPUs this process may run on.
    chunk_size:
        Queries per dispatched chunk; default splits the distinct-query work
        into ~4 chunks per worker.
    """

    #: Seconds to wait for one pool chunk before declaring the pool wedged.
    #: Generous next to real chunk times (milliseconds to seconds here);
    #: only a pool whose workers are all stuck ever reaches it, and the
    #: response is kill-and-retry-serially, never a missing answer.
    pool_timeout_s: float = 120.0

    def __init__(
        self,
        graph: Union[LabeledGraph, DSQL],
        config: Optional[DSQLConfig] = None,
        k: Optional[int] = None,
        *,
        strategy: str = "serial",
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if strategy == _SERIAL_ALIAS:
            strategy = "serial"
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {strategy!r}; choose from {list(STRATEGIES)}"
            )
        if isinstance(graph, DSQL):
            if config is not None or k is not None:
                raise ValueError("pass either a DSQL session or config/k, not both")
            self.session = graph
        else:
            self.session = DSQL(graph, config=config, k=k)
        if jobs is not None and jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.strategy = strategy
        self.jobs = default_jobs() if jobs is None else jobs
        self.chunk_size = chunk_size
        self.last_report: Optional[ExecutorReport] = None
        self._pool: Optional[WorkerPool] = None
        self._pool_unavailable = False
        self._per_worker: Tuple[Tuple[int, int], ...] = ()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The persistent worker pool, if one has been spun up."""
        return self._pool

    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The persistent pool, created on first use; None when unsupported.

        A failed creation (no multiprocessing start method, or none of the
        primitives a process pool needs) is remembered so later batches do
        not retry it; they run in-process instead.
        """
        if self._pool is not None:
            return self._pool
        if self._pool_unavailable:
            return None
        try:
            self._pool = WorkerPool(
                self.session.graph, self.session.config, self.jobs
            )
        except (OSError, NotImplementedError):
            logger.warning(
                "worker pool unavailable; process batches will run in-process",
                exc_info=True,
            )
            self._pool_unavailable = True
            return None
        return self._pool

    def _discard_pool(self) -> None:
        """Tear down a (typically broken) pool; the next batch rebuilds it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(wait=False)

    def close(self) -> None:
        """Release the worker pool and its processes (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(self, queries) -> List[DSQResult]:
        """Answer the batch; results are in input order, identical to serial."""
        queries = list(queries)
        session = self.session
        self._per_worker = ()
        if self.strategy == "serial" or self.jobs <= 1 or len(queries) <= 1:
            results = session.query_many(queries)
            self.last_report = ExecutorReport(
                strategy=self.strategy,
                jobs=1,
                batch=len(queries),
                searches=sum(1 for r in results if not r.from_cache),
                chunks=0,
                chunks_retried=0,
            )
            self._record_report()
            return results

        # Memo keys are version-qualified (graph (epoch, delta_seq) + query
        # canonical structure) via the session's own key builder, so the
        # worker results and the replay agree with what a serial query_many
        # would have keyed — including across mutations.
        keys = [session.memo_key(q) for q in queries]
        by_key = dict(zip(keys, queries))
        need = {key: by_key[key] for key in session._memo_lacks(by_key)}
        logger.debug(
            "batch of %d: %d distinct searches over %d %s workers",
            len(queries),
            len(need),
            self.jobs,
            self.strategy,
        )
        fresh, chunks, retried = self._search_parallel(need)

        def searched(key: Key) -> DSQResult:
            # A worker's result, else a search here: the memo held the key
            # when the batch was planned and lost it before its turn.
            result = fresh.get(key)
            if result is None:
                result = fresh[key] = session.query(by_key[key])
            return result

        # Replay the batch through the session's own memo step: LRU state,
        # hit/miss counters and from_cache flags evolve exactly as in a
        # serial query_many.
        results = [session._memo_answer(key, partial(searched, key)) for key in keys]
        self.last_report = ExecutorReport(
            strategy=self.strategy,
            jobs=self.jobs,
            batch=len(queries),
            searches=len(fresh),
            chunks=chunks,
            chunks_retried=retried,
            per_worker=self._per_worker,
        )
        self._record_report()
        return results

    def _record_report(self) -> None:
        """Flush :attr:`last_report` into the session's instrumentation."""
        instr = self.session.instrumentation
        report = self.last_report
        if instr is None or report is None:
            return
        metrics = instr.metrics
        metrics.counter("executor.batches").inc()
        metrics.counter("executor.queries").inc(report.batch)
        metrics.counter("executor.searches").inc(report.searches)
        if report.chunks:
            metrics.counter("executor.chunks").inc(report.chunks)
        if report.chunks_retried:
            metrics.counter("executor.chunks_retried").inc(report.chunks_retried)
        instr.point(
            "executor.batch",
            strategy=report.strategy,
            jobs=report.jobs,
            batch=report.batch,
            searches=report.searches,
            chunks=report.chunks,
            chunks_retried=report.chunks_retried,
            per_worker=list(report.per_worker),
        )

    # ------------------------------------------------------------------
    def _chunk(self, items: List) -> List[List]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(items) // (self.jobs * _CHUNKS_PER_JOB)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _search_parallel(
        self, need: Dict[Key, QueryGraph]
    ) -> Tuple[Dict[Key, DSQResult], int, int]:
        """Search every distinct query on the pool; returns (results, chunks, retried)."""
        if not need:
            return {}, 0, 0
        session = self.session
        # Warm the per-graph cache before any worker dispatch, so the
        # expensive one-off index build is shared rather than raced/duplicated
        # (pool workers start from its signature table).
        session.graph.index_cache()
        # Ship (labels, edges) payloads to the persistent pool, whose
        # workers hold warm sessions over their own copies.
        items = [
            (key, list(query.labels), list(query.edges()))
            for key, query in need.items()
        ]
        chunks = self._chunk(items)

        def retry_payload(chunk):
            return [
                (key, session.query(QueryGraph(labels, edges)))
                for key, labels, edges in chunk
            ]

        pool = self._ensure_pool()
        if pool is not None and (pool.stale or pool.broken):
            # Stale: the graph was written to since the workers started.
            # Broken: a worker died since the last batch, and the executor
            # underneath refuses every submission from then on. Either way,
            # start fresh workers before dispatching.
            logger.info(
                "worker pool is %s; rebuilding it", "stale" if pool.stale else "broken"
            )
            self._discard_pool()
            pool = self._ensure_pool()
        if pool is None:
            # No multiprocessing on this platform: degrade to in-process
            # execution, surfaced as retried chunks.
            results: Dict[Key, DSQResult] = {}
            for chunk in chunks:
                results.update(retry_payload(chunk))
            return results, len(chunks), len(chunks)

        results, failed = self._dispatch_pool(pool, chunks)
        if pool.broken:
            logger.warning("worker pool broke mid-batch; discarding it")
            self._discard_pool()
        for chunk in failed:
            results.update(retry_payload(chunk))
        return results, len(chunks), len(failed)

    def _dispatch_pool(
        self, pool: WorkerPool, chunks: List[List]
    ) -> Tuple[Dict[Key, DSQResult], List[List]]:
        """Run chunks on the persistent pool; failed chunks come back intact.

        Successful chunks contribute their worker's counter snapshot to the
        parent registry and their pid to the per-worker tally.
        """
        results: Dict[Key, DSQResult] = {}
        failed: List[List] = []
        per_worker: Dict[int, int] = {}
        instr = self.session.instrumentation
        futures = []
        for chunk in chunks:
            try:
                futures.append((pool.submit(chunk), chunk))
            except (StaleSegmentError, BrokenProcessPool, OSError):
                # The pool went stale or broke after the pre-dispatch check
                # (a write or a worker death raced it), or the OS
                # refused to start a worker. The chunk is intact in the
                # parent; answer it serially.
                logger.warning(
                    "chunk submission refused by the pool; retrying serially",
                    exc_info=True,
                )
                failed.append(chunk)
        for future, chunk in futures:
            try:
                pid, pairs, counters = future.result(timeout=self.pool_timeout_s)
            except FuturesTimeoutError:
                # Nothing came back for a whole timeout window: the pool is
                # wedged (every worker stuck), not merely slow. Kill it —
                # the outstanding futures then fail fast and land in the
                # retry path below, so the batch still completes serially.
                logger.warning(
                    "worker chunk of %d queries timed out after %.0fs; "
                    "killing the wedged pool",
                    len(chunk),
                    self.pool_timeout_s,
                )
                failed.append(chunk)
                self._discard_pool()
                continue
            except Exception:
                # Worker (or the whole pool) died, or its copy of the graph
                # is at another version than the chunk; the chunk is intact
                # in the parent, so fall back to searching it here.
                logger.warning(
                    "worker chunk of %d queries failed; retrying serially",
                    len(chunk),
                    exc_info=True,
                )
                failed.append(chunk)
                continue
            results.update(pairs)
            per_worker[pid] = per_worker.get(pid, 0) + len(pairs)
            if instr is not None:
                instr.metrics.merge_counters(counters)
        self._per_worker = tuple(sorted(per_worker.items()))
        return results, failed


__all__ = [
    "STRATEGIES",
    "BatchExecutor",
    "default_jobs",
]
