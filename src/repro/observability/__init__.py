"""Observability: metrics registry and structured tracing.

The package gives every layer of the reproduction — both search engines,
the :class:`~repro.core.dsql.DSQL` session, the per-graph
:class:`~repro.indexes.graph_cache.GraphIndexCache`, and the parallel
:class:`~repro.parallel.executor.BatchExecutor` — one shared way to report
what a query actually did:

* :class:`MetricsRegistry` — counters/gauges/histograms (zero-dependency);
* :class:`Tracer` — span/point events with a JSONL sink (``--trace-out``).

:class:`Instrumentation` bundles the two. Engines take an optional
instance and guard every touch with ``if instr is not None`` — **no
instrumentation code runs on a per-expansion path**, so the disabled
default costs nothing measurable (calls are bounded per level and per
stride tick, not per expansion: ``tests/observability/test_hooks.py``).

A process-wide default (:func:`set_default_instrumentation`) lets entry
points like the CLI instrument every session created anywhere in the
process without threading a parameter through each layer; explicitly
passing ``instrumentation=`` to a constructor always wins. See
``docs/observability.md`` for the metric catalog and trace schema.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional, Tuple

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_line,
    merge_snapshots,
    record_search_stats,
)
from repro.observability.tracing import (
    TRACE_EVENT_SCHEMA,
    JsonlSink,
    ListSink,
    Tracer,
    configure_logging,
    read_jsonl,
    validate_event,
)

EXPANSION_BUCKETS: Tuple[float, ...] = (
    8.0,
    32.0,
    128.0,
    512.0,
    2048.0,
    8192.0,
    32768.0,
    131072.0,
    524288.0,
    2097152.0,
)
"""Histogram bounds for per-level expansion counts (powers of 4)."""


class Instrumentation:
    """Bundle of (metrics, tracer) handed to engines.

    Either part may be omitted: ``metrics`` defaults to a fresh
    :class:`MetricsRegistry`; ``tracer`` defaults to ``None`` and its call
    sites degrade to no-ops. The helper methods below are the engines'
    entire surface, so the emission policy (which metric a level writes,
    which fields a tick carries) lives here rather than being scattered
    across the hot modules.
    """

    __slots__ = ("metrics", "tracer")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer

    # -- tracing ------------------------------------------------------
    def span(self, name: str, query_id: Optional[int] = None, **fields):
        """Context-manager span (null context when no tracer is attached)."""
        if self.tracer is None:
            return nullcontext({})
        return self.tracer.span(name, query_id=query_id, **fields)

    def point(self, name: str, query_id: Optional[int] = None, **fields) -> None:
        if self.tracer is not None:
            self.tracer.point(name, query_id=query_id, **fields)

    # -- per-level bracket (both DSQL phases) -------------------------
    def level_start(
        self, phase: str, level: int, query_id: Optional[int] = None
    ) -> float:
        """Return the level's start time (ms), for :meth:`level_end`'s span."""
        return time.monotonic() * 1000.0

    def level_end(
        self,
        phase: str,
        level: int,
        query_id: Optional[int],
        start_ms: float,
        expansions: int,
        added: int,
    ) -> None:
        """Close a level: per-level expansion histogram + a level span."""
        self.metrics.histogram(
            f"{phase}.level_expansions", EXPANSION_BUCKETS
        ).observe(expansions)
        if self.tracer is not None:
            self.tracer.emit_span(
                f"{phase}.level",
                start_ms,
                query_id=query_id,
                level=level,
                expansions=expansions,
                added=added,
            )

    # -- swap decisions ------------------------------------------------
    def swap_decision(
        self,
        level: int,
        benefit: int,
        loss: float,
        accepted: bool,
        query_id: Optional[int] = None,
    ) -> None:
        if not accepted:
            # Accepts flush from SearchStats.phase2_swaps at query end.
            self.metrics.counter("phase2.swap_reject").inc()

    # -- deadline ------------------------------------------------------
    def deadline_tick(
        self,
        nodes_expanded: int,
        remaining_ms: float,
        stride: int,
        query_id: Optional[int] = None,
    ) -> None:
        """One stride deadline check (both engines call this)."""
        self.metrics.counter("deadline.ticks").inc()
        self.metrics.gauge("deadline.check_stride").set(stride)

    def deadline_margin(self, remaining_ms: float, query_id: Optional[int] = None) -> None:
        """Record how much of ``time_budget_ms`` a finished query left over."""
        self.metrics.histogram("deadline.margin_ms").observe(max(remaining_ms, 0.0))
        self.point("deadline.margin", query_id=query_id, remaining_ms=remaining_ms)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


_default_instrumentation: Optional[Instrumentation] = None


def set_default_instrumentation(instr: Optional[Instrumentation]) -> None:
    """Install (or clear, with ``None``) the process-wide default.

    Sessions constructed *after* the call pick it up; existing sessions keep
    whatever they were built with.
    """
    global _default_instrumentation
    _default_instrumentation = instr


def get_default_instrumentation() -> Optional[Instrumentation]:
    """The process-wide default instrumentation, or ``None``."""
    return _default_instrumentation


@contextmanager
def default_instrumentation(instr: Instrumentation) -> Iterator[Instrumentation]:
    """Scoped form of :func:`set_default_instrumentation` (tests, scripts)."""
    previous = get_default_instrumentation()
    set_default_instrumentation(instr)
    try:
        yield instr
    finally:
        set_default_instrumentation(previous)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "JsonlSink",
    "ListSink",
    "Instrumentation",
    "TRACE_EVENT_SCHEMA",
    "DEFAULT_BUCKETS",
    "EXPANSION_BUCKETS",
    "validate_event",
    "read_jsonl",
    "configure_logging",
    "record_search_stats",
    "counters_line",
    "merge_snapshots",
    "set_default_instrumentation",
    "get_default_instrumentation",
    "default_instrumentation",
]
