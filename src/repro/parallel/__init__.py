"""Parallel query-batch execution over a shared per-graph index cache."""

from repro.parallel.executor import STRATEGIES, BatchExecutor
from repro.parallel.pool import WorkerPool, worker_graph

__all__ = ["BatchExecutor", "STRATEGIES", "WorkerPool", "worker_graph"]
