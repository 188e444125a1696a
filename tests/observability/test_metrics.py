"""Metrics-registry unit tests: bucket semantics, resets, thread-safety."""

from __future__ import annotations

import threading

import pytest

from repro.core.dsql import DSQL
from repro.observability import Instrumentation
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counters_line,
    merge_snapshots,
    record_search_stats,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("c")
        c.inc(7)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("g")
        g.set(10)
        g.inc(-3)
        assert g.value == 7


class TestHistogram:
    def test_le_bucket_semantics(self):
        # Bounds are inclusive upper bounds (Prometheus `le`): a value equal
        # to a bound lands in that bound's bucket, not the next one.
        h = Histogram("h", (1, 10, 100))
        for value in (0, 1, 1.0):
            h.observe(value)
        h.observe(10)  # edge: exactly on the second bound
        h.observe(10.5)
        h.observe(100)
        h.observe(101)  # overflow: above every bound
        assert h.bucket_counts() == [3, 1, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(0 + 1 + 1 + 10 + 10.5 + 100 + 101)

    def test_overflow_bucket_is_last(self):
        h = Histogram("h", (5,))
        h.observe(6)
        assert h.bucket_counts() == [0, 1]

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", (1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", (3, 2))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_snapshot_and_reset(self):
        h = Histogram("h", (1, 2))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap == {"buckets": [1.0, 2.0], "counts": [0, 1, 0], "sum": 1.5, "count": 1}
        h.reset()
        assert h.count == 0
        assert h.bucket_counts() == [0, 0, 0]


class TestRegistry:
    def test_create_on_first_use_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]

    def test_reset_zeroes_but_keeps_instruments(self):
        # The between-queries contract: reset() zeroes values while keeping
        # instrument identities, so held references stay live.
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(3)
        reg.histogram("h", (1,)).observe(0.5)
        reg.reset()
        assert c.value == 0
        assert reg.counter("c") is c
        assert reg.histogram("h").count == 0

    def test_snapshot_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", (1,)).observe(3)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["c"] == 2
        assert snap["h"]["count"] == 1

    def test_counter_reset_between_queries(self, fig1):
        instr = Instrumentation()
        session = DSQL(fig1[0], k=2, instrumentation=instr)
        session.query(fig1[1])
        first = instr.metrics.counter("search.nodes_expanded").value
        assert first > 0
        instr.metrics.reset()
        assert instr.metrics.counter("search.nodes_expanded").value == 0
        session.query(fig1[1])
        assert instr.metrics.counter("search.nodes_expanded").value == first


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        threads = 8
        per_thread = 10_000
        barrier = threading.Barrier(threads)

        def work():
            counter = reg.counter("shared")
            hist = reg.histogram("h", (1, 2, 3))
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()
                hist.observe(2)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.counter("shared").value == threads * per_thread
        hist = reg.histogram("h")
        assert hist.count == threads * per_thread
        assert hist.bucket_counts()[1] == threads * per_thread

    def test_a_racing_first_use_builds_one_instrument(self, monkeypatch):
        """Eight threads ask for the same new names at once. An instrument
        that is slow to build widens the window between the lock-free miss
        and the creation, so a creation that did not re-check under the lock
        would hand out two."""
        import time

        import repro.observability.metrics as metrics_mod

        def slow(kind):
            def build(self, *args):
                time.sleep(0.005)
                kind.__init__(self, *args)

            return type(f"Slow{kind.__name__}", (kind,), {"__slots__": (), "__init__": build})

        for kind in (Counter, Gauge, Histogram):
            monkeypatch.setattr(metrics_mod, kind.__name__, slow(kind))
        reg = MetricsRegistry()
        threads, names = 8, [f"m{i}" for i in range(6)]
        barrier = threading.Barrier(threads)
        seen = [[] for _ in range(threads)]

        def work(row):
            barrier.wait()
            for name in names:
                row.append(reg.counter(f"c.{name}"))
                row.append(reg.gauge(f"g.{name}"))
                row.append(reg.histogram(f"h.{name}", (1, 2)))

        pool = [threading.Thread(target=work, args=(row,)) for row in seen]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        for column in zip(*seen):
            assert len({id(instrument) for instrument in column}) == 1
        assert len(reg.names()) == 3 * len(names)
        reg.gauge("x")
        with pytest.raises(TypeError):
            reg.counter("x")

    def test_thread_strategy_batch_flushes_consistently(self, imdb_small):
        """``thread``, the benchmark harness's alias, flushes a serial batch."""
        from repro.parallel.executor import BatchExecutor

        graph, query = imdb_small
        instr = Instrumentation()
        session = DSQL(graph, k=3, instrumentation=instr)
        executor = BatchExecutor(session, strategy="thread", jobs=2)
        results = executor.run([query] * 6)
        assert len(results) == 6
        assert executor.last_report.strategy == "serial"
        snap = instr.metrics.snapshot()
        assert snap["executor.queries"] == 6
        # One distinct structure: one real search, five memo replays.
        assert snap["executor.searches"] == 1
        assert snap["cache.query.hit"] == 5
        assert snap["cache.query.miss"] == 1


class TestSearchStatsFlush:
    def test_record_search_stats_mapping(self):
        from repro.core.state import SearchStats

        stats = SearchStats()
        stats.nodes_expanded = 11
        stats.conflict_skips = 3
        stats.bad_vertex_skips = 2
        stats.phase2_swaps = 1
        stats.phase2_ran = True
        stats.deadline_exhausted = True
        reg = MetricsRegistry()
        record_search_stats(reg, stats)
        snap = reg.snapshot()
        assert snap["search.nodes_expanded"] == 11
        assert snap["prune.conflict_skip"] == 3
        assert snap["prune.bad_vertex_skip"] == 2
        assert snap["phase2.swap_accept"] == 1
        assert snap["phase2.ran"] == 1
        assert snap["deadline.exhausted"] == 1
        assert snap["query.total"] == 1

    def test_counters_line_mentions_nonzero_only(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("zero")
        line = counters_line(reg)
        assert line.startswith("metrics: ")
        assert "a=2" in line
        assert "zero" not in line

    def test_merge_snapshots_sums_scalars(self):
        merged = merge_snapshots(
            [
                {"a": 1, "flag": True, "h": {"count": 2}},
                None,
                {"a": 2.5, "b": 1},
            ]
        )
        assert merged == {"a": 3.5, "b": 1}
