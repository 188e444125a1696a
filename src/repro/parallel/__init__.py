"""Parallel query-batch execution over a shared per-graph index cache."""

from repro.parallel.executor import STRATEGIES, BatchExecutor, ExecutorReport
from repro.parallel.pool import WorkerPool, worker_graph

__all__ = ["BatchExecutor", "ExecutorReport", "STRATEGIES", "WorkerPool", "worker_graph"]
