"""Persistent worker pool: each worker is started with the graph.

This is the process half of the parallel story done right. The old process
strategy paid, *per batch*: a fresh ``ProcessPoolExecutor`` (fork + interp
setup per worker), a module-global session hand-off (racy — two executors
running concurrently clobbered each other), and cold per-worker caches.
:class:`WorkerPool` replaces all three:

* the graph reaches a worker **as an argument of its start** — the pool
  initializer's ``initargs=(graph, config)`` — which the start method turns
  into inheritance under ``fork`` (nothing is copied or serialized) and into
  one pickle per worker under ``spawn``. There is no parent-side module
  global to race on, and a worker's state is scoped to its pool by
  construction;
* the worker serves a shallow copy of the graph it was given
  (:func:`worker_graph`): the index cache, plan cache, estimator and
  instrumentation are **built in the worker**, at the parent's
  ``(epoch, delta_seq)``. Nothing that holds a lock is carried across: a
  fork freezes every lock another parent thread happened to hold — a point
  query inside ``candidate_pool`` beside a process batch is enough — and a
  child that waits on one never wakes;
* each worker keeps a **persistent DSQL session** (and with it the
  per-graph plan cache and candidate-pool memo) warm across every batch
  the pool ever runs.

Queries still travel to workers as plain ``(labels, edges)`` payloads and
frozen :class:`~repro.core.result.DSQResult` objects come back — plus a
per-chunk counter snapshot, so the parent can merge ``search.*`` /
``kernel.dispatch.*`` metrics that previously died with the worker.

A pool **serves one version**: the graph's ``(epoch, delta_seq)`` when it
was built, which parent and worker share. A write in the parent makes the
pool :attr:`~WorkerPool.stale` and :meth:`~WorkerPool.submit` raises
:class:`~repro.exceptions.StaleSegmentError` before anything is pickled —
the executor's cue to start fresh workers at the new version. Every chunk
carries the pool's version, and a worker whose copy is at another one
refuses it the same way: ``ProcessPoolExecutor`` starts its workers at the
first ``submit`` (all of them under ``fork``, on demand under ``spawn``),
so a write racing that start would otherwise reach a worker unannounced.
No answer ever comes from a topology the parent no longer has.

The pool prefers the ``fork`` start method (cheapest: a worker starts with
the parent's pages); where fork is unavailable it falls back to ``spawn``,
which works because everything workers need arrives via initargs rather
than inherited globals.
"""

from __future__ import annotations

import atexit
import copy
import logging
import multiprocessing
import os
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro.core.config import DSQLConfig
from repro.core.result import DSQResult
from repro.exceptions import StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import GraphIndexCache

logger = logging.getLogger("repro.parallel")

Key = Tuple
ChunkItem = Tuple[Key, Sequence, List[Tuple[int, int]]]
ChunkResult = Tuple[int, List[Tuple[Key, DSQResult]], Dict[str, float]]
"""What one worker chunk returns: ``(worker pid, (key, result) pairs,
non-zero counter snapshot for the chunk)``."""

_WORKER_SESSION = None
"""Child-process-only: the persistent instrumented ``DSQL`` session one worker
keeps warm across batches, set by the pool initializer.

Unlike the old ``_FORK_SESSION`` hand-off this is never written in the
parent: each worker process belongs to exactly one pool and receives its
state through initargs, so concurrent pools cannot interleave writes.
"""


def worker_graph(graph: LabeledGraph) -> LabeledGraph:
    """The graph a worker process serves, from the one it was started with.

    Called in the worker, by the pool initializer here and by the
    pre-forked service front alike. ``graph`` arrived as a start argument —
    inherited under ``fork``, unpickled under ``spawn`` — and only its
    storage (rows, sets, labels: no lock) is kept. The index cache, and with
    it the plan cache, the estimator and every lock, is built here, seeded
    with the signature table and ``(epoch, delta_seq)`` of the cache
    ``graph`` came with: the parent's version at the moment this process
    started. That cache is only read, never locked: under ``fork`` any of
    its locks may have been held by another parent thread at the fork and
    would then stay locked forever in this process. The copy is shallow —
    the twin's rows, sets and label tables are ``graph``'s own lists — which
    is right in a process of its own and nowhere else.
    """
    seed = graph.index_cache()
    epoch, delta_seq = seed.version
    twin = copy.copy(graph)
    twin._cache = GraphIndexCache(
        twin, signature_masks=seed.signature_masks, epoch=epoch, delta_seq=delta_seq
    )
    return twin


def _init_worker(graph: LabeledGraph, config: DSQLConfig) -> None:
    """Pool initializer (runs once in each worker process at its start).

    Pins a session over :func:`worker_graph` for the worker's lifetime.
    """
    global _WORKER_SESSION
    # Late imports keep the module importable in the parent before any
    # worker exists, and off the child's critical path for repeat batches.
    from repro.core.dsql import DSQL
    from repro.observability import Instrumentation

    _WORKER_SESSION = DSQL(
        worker_graph(graph), config=config, instrumentation=Instrumentation()
    )


def _run_chunk(payload: Tuple[Tuple[int, int], List[ChunkItem]]) -> ChunkResult:
    """Worker body: answer one chunk sent for this worker's graph version.

    A chunk for any other ``(epoch, delta_seq)`` raises
    :class:`~repro.exceptions.StaleSegmentError` instead of an answer from
    the wrong topology. The worker registry is reset per chunk so the
    returned snapshot holds exactly this chunk's counters; the parent merges
    them into its own registry, keeping process-strategy metrics truthful.
    """
    session = _WORKER_SESSION
    if session is None:  # pragma: no cover - initializer failure surfaces first
        raise RuntimeError("worker pool initializer did not run")
    version, chunk = payload
    if version != session.graph.version:
        raise StaleSegmentError(
            f"a chunk for graph version {version} reached a worker whose copy "
            f"is at {session.graph.version}"
        )
    metrics = session.instrumentation.metrics
    metrics.reset()
    out = [
        (key, session.query(QueryGraph(labels, edges)))
        for key, labels, edges in chunk
    ]
    return os.getpid(), out, metrics.counters_snapshot()


def _pool_context():
    """The preferred multiprocessing context: fork, else spawn, else None."""
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform-dependent
            continue
    return None  # pragma: no cover - no known platform lacks both


_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
"""Every not-yet-closed pool, reaped at interpreter exit.

A pool leaked until interpreter shutdown can deadlock the exit: the
executor's manager thread (joined by ``threading._shutdown``) waits for
workers that can no longer receive their wake-up sentinel once
multiprocessing's own atexit hook has reaped the call queue's feeder
thread. Killing the workers outright first unwedges the manager — at exit
no further batches are coming and worker sessions hold no parent-visible
state, so this loses nothing.
"""


def _reap_live_pools() -> None:  # pragma: no cover - interpreter-exit path
    for pool in list(_LIVE_POOLS):
        try:
            pool.close(wait=False)
        except Exception:
            logger.debug("worker pool reap at exit failed", exc_info=True)


atexit.register(_reap_live_pools)


class WorkerPool:
    """N persistent workers, each started with one graph.

    Parameters
    ----------
    graph:
        The data graph the workers serve; its index cache is warmed here
        (if needed), so every worker starts from its signature table and
        version.
    config:
        The :class:`~repro.core.config.DSQLConfig` every worker session
        uses. Must match the driving session's config for bit-identical
        replay.
    jobs:
        Worker-process count.

    Raises :class:`OSError` when the platform has no usable multiprocessing
    start method; callers degrade to in-process execution.
    """

    #: Seconds a graceful :meth:`close` waits for workers to drain before
    #: killing stragglers. Fork can wedge a worker at birth — a lock some
    #: other parent thread held at fork time stays locked forever in the
    #: child — and a wedged worker never reads its shutdown sentinel, so an
    #: unbounded join would hang the caller forever.
    shutdown_grace_s: float = 15.0

    def __init__(self, graph: LabeledGraph, config: DSQLConfig, jobs: int) -> None:
        context = _pool_context()
        if context is None:  # pragma: no cover - platform-dependent
            raise OSError("no usable multiprocessing start method")
        self.jobs = jobs
        self._graph = graph
        # The graph's version now (any value — building a pool is a read):
        # the one version this pool's workers serve.
        self.version = graph.index_cache().version
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(graph, config),
        )
        self._closed = False
        _LIVE_POOLS.add(self)

    @property
    def shared_nbytes(self) -> int:
        """Bytes of shared memory the pool holds: none. Kept for the frozen
        benchmark harness, which records it."""
        return 0

    @property
    def stale(self) -> bool:
        """Whether the graph was written to since the pool was built.

        A stale pool's workers serve a version the parent no longer has;
        the owner should discard the pool and build a fresh one, whose
        workers start at the current version.
        """
        return self._graph.version != self.version

    def submit(self, chunk: List[ChunkItem]) -> "Future[ChunkResult]":
        """Dispatch one chunk to the pool, sent with the pool's version.

        Raises :class:`~repro.exceptions.StaleSegmentError` when the pool is
        :attr:`stale`, before anything is pickled; the executor underneath
        raises ``BrokenProcessPool`` once a worker has died and
        :class:`OSError` when the OS refuses to start one.
        """
        if self.stale:
            raise StaleSegmentError(
                f"the pool serves graph version {self.version}, the graph is at "
                f"{self._graph.version}: its workers must be replaced"
            )
        return self._executor.submit(_run_chunk, (self.version, chunk))

    @property
    def broken(self) -> bool:
        """Whether the pool lost its workers (a crashed child breaks the
        whole ``ProcessPoolExecutor``); a broken pool must be replaced."""
        return bool(getattr(self._executor, "_broken", False))

    def close(self, wait: bool = True) -> None:
        """Shut the workers down (idempotent).

        ``wait=True`` (the default) drains gracefully but with a *bounded*
        join: workers get :attr:`shutdown_grace_s` seconds to pick up their
        shutdown sentinels and exit, then stragglers are killed. The bound
        matters because a fork-wedged worker never reads its sentinel; an
        unbounded join would park the caller (or interpreter shutdown)
        forever. ``wait=False`` — the discard / GC / interpreter-exit
        path — skips the grace period and kills the workers outright:
        nobody is waiting on their results. The pool owns nothing but its
        processes, so there is nothing else to release.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        processes = list(getattr(self._executor, "_processes", {}).values())
        if wait:
            # Wake the manager thread so it delivers sentinels, then give
            # healthy workers a grace window to drain and exit.
            self._executor.shutdown(wait=False)
            deadline = time.monotonic() + self.shutdown_grace_s
            for process in processes:
                process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already dead / no perms
                    pass
        self._executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close(wait=False)
        except Exception:
            pass


__all__ = ["ChunkItem", "ChunkResult", "WorkerPool", "worker_graph"]
