"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the quantitative half of :mod:`repro.observability` — every
number the engines can report about *why* a query cost what it cost flows
through here: expansions per level (the quantity the paper's Section 5
optimizations exist to shrink), prunes per strategy, swap accept/reject
counts, cache hits, deadline margins. The qualitative half (ordering and
timing of events) is :mod:`repro.observability.tracing`.

Design constraints, in order:

1. **Cheap when absent.** Engines only touch a registry through an
   ``Instrumentation`` object that defaults to ``None``; none of the types
   here appear on a per-expansion path.
2. **Thread-safe.** The ``thread`` strategy of
   :class:`~repro.parallel.executor.BatchExecutor` has several workers
   flushing into one registry; every instrument serializes its updates with
   a lock (uncontended acquisition is tens of nanoseconds, and updates
   happen per-level / per-query, not per-expansion).
3. **Stdlib only.** No prometheus-client, no numpy; a registry snapshot is
   a plain dict that ``json.dumps`` accepts directly.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    2000.0,
    5000.0,
    10000.0,
)
"""Default histogram upper bounds — a 1/2/5 decade ladder.

Works for both millisecond latencies and small count distributions; callers
with a known range (e.g. per-level expansion counts) pass their own
boundaries at first use.
"""


class Counter:
    """A monotonically increasing count (resettable between runs)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Number:
        return self._value


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Number:
        return self._value


class Histogram:
    """Fixed-boundary histogram with cumulative-friendly bucket semantics.

    ``buckets`` are *upper bounds* (inclusive, Prometheus ``le`` semantics):
    an observation lands in the first bucket whose bound is >= the value; a
    value above every bound lands in the implicit overflow bucket. Bounds
    must be strictly increasing.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, buckets: Sequence[Number] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name}: at least one bucket bound required")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow (> last bound)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        """Record one observation."""
        idx = self._bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def _bucket_index(self, value: Number) -> int:
        # Linear scan: bucket lists are short (dozens at most) and this is
        # never on a per-expansion path; bisect would obscure the le rule.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts, overflow bucket last."""
        with self._lock:
            return list(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Create-on-first-use instrument registry.

    Instruments are identified by name; asking for the same name twice
    returns the same object, so call sites never coordinate registration.
    A name is bound to one instrument kind for the registry's lifetime —
    asking for ``counter("x")`` after ``gauge("x")`` raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, factory) -> object:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[Number] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument, keeping identities (between queries/runs)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()

    def snapshot(self) -> Dict[str, object]:
        """Name -> value (counters/gauges) or bucket dict (histograms).

        The result is JSON-serializable as-is; names are sorted so repeated
        snapshots diff cleanly.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def counters_snapshot(self) -> Dict[str, Number]:
        """Non-zero :class:`Counter` values only, by name.

        The cross-process merge format: a process-strategy worker ships this
        back with its results and the parent replays it with
        :meth:`merge_counters`. Gauges and histograms are excluded on
        purpose — summing a gauge across processes is meaningless, and the
        counter subset is what keeps ``search.*`` / ``kernel.dispatch.*``
        truthful under the process strategy.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return {
            name: instrument.value
            for name, instrument in items
            if isinstance(instrument, Counter) and instrument.value
        }

    def merge_counters(self, counters: Optional[Dict[str, Number]]) -> None:
        """Add a :meth:`counters_snapshot` from another process into this registry."""
        if not counters:
            return
        for name, value in counters.items():
            self.counter(name).inc(value)


# ----------------------------------------------------------------------
# SearchStats -> registry flush
# ----------------------------------------------------------------------

_STATS_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("nodes_expanded", "search.nodes_expanded"),
    ("embeddings_found", "search.embeddings_found"),
    ("conflict_skips", "prune.conflict_skip"),
    ("bad_vertex_skips", "prune.bad_vertex_skip"),
    ("bad_vertices_marked", "prune.bad_vertex_marked"),
    ("candidate_cap_hits", "prune.candidate_cap"),
    ("embeddings_generated_phase2", "phase2.generated"),
    ("phase2_swaps", "phase2.swap_accept"),
    ("kernel_scan", "kernel.dispatch.scan"),
    ("kernel_merge", "kernel.dispatch.merge"),
    ("kernel_bitset", "kernel.dispatch.bitset"),
    ("kernel_scalar", "kernel.dispatch.scalar"),
)
"""``SearchStats`` field -> metric name (see docs/observability.md)."""


def record_search_stats(registry: MetricsRegistry, stats) -> None:
    """Flush one query's :class:`~repro.core.state.SearchStats` counters.

    Called once per completed query (a per-query flush of per-query-object
    counters, so session metrics accumulate across queries); the per-level
    histograms and cache counters are written at their own call sites.
    """
    for attr, metric in _STATS_COUNTERS:
        value = getattr(stats, attr)
        if value:
            registry.counter(metric).inc(value)
    registry.counter("query.total").inc()
    if stats.budget_exhausted:
        registry.counter("deadline.node_budget_exhausted").inc()
    if stats.deadline_exhausted:
        registry.counter("deadline.exhausted").inc()
    if stats.phase2_ran:
        registry.counter("phase2.ran").inc()
        if stats.phase2_early_termination:
            registry.counter("phase2.early_termination").inc()


def counters_line(registry: MetricsRegistry, prefix: str = "metrics:") -> str:
    """One-line ``name=value`` summary of all non-zero counters and gauges."""
    parts: List[str] = []
    for name, value in registry.snapshot().items():
        if isinstance(value, dict):  # histogram: summarize as count/sum
            if value["count"]:
                parts.append(f"{name}.count={value['count']}")
        elif value:
            parts.append(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}")
    return f"{prefix} " + (" ".join(parts) if parts else "(all zero)")


def merge_snapshots(snapshots: Iterable[Optional[Dict[str, object]]]) -> Dict[str, Number]:
    """Sum scalar metrics across snapshot dicts (histograms are skipped)."""
    total: Dict[str, Number] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[name] = total.get(name, 0) + value
    return total
