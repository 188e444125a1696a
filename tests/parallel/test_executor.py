"""Tests for :mod:`repro.parallel.executor`.

The executor's contract is *serial reproducibility*: for any batch, any
strategy, the returned results — embeddings, stats, cache flags — and the
session's memo counters must match a serial ``query_many`` run exactly.
"""

from __future__ import annotations

import pytest

import repro.parallel.pool as pool_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import dataset_names, make_dataset
from repro.exceptions import ConfigError
from repro.parallel import STRATEGIES, BatchExecutor
from repro.queries.generator import query_set

TINY_SCALE = 0.0001  # floors at ~50-vertex graphs: fast but non-degenerate
K = 4
BATCH = 8  # distinct queries; the batch duplicates some to hit the memo


def _workload(name: str):
    graph = make_dataset(name, scale=TINY_SCALE, seed=13)
    queries = list(query_set(graph, 3, BATCH, seed=17))
    # Duplicates exercise the memo/replay path alongside fresh searches.
    return graph, (queries + queries[: BATCH // 2])


def _serial_reference(graph, queries, **config_kwargs):
    session = DSQL(graph, config=DSQLConfig(k=K, **config_kwargs))
    results = session.query_many(queries)
    return session, [r.to_dict() for r in results]


def _assert_matches_serial(graph, queries, strategy, **executor_kwargs):
    ref_session, ref_dicts = _serial_reference(graph, queries)
    session = DSQL(graph, config=DSQLConfig(k=K))
    with BatchExecutor(session, strategy=strategy, jobs=2, **executor_kwargs) as executor:
        results = executor.run(queries)
    assert [r.to_dict() for r in results] == ref_dicts
    assert session.stats.query_cache_hits == ref_session.stats.query_cache_hits
    assert session.stats.query_cache_misses == ref_session.stats.query_cache_misses
    assert [r.from_cache for r in results] == [d["from_cache"] for d in ref_dicts]
    return executor


class TestSerialReproducibility:
    """Property: every registry dataset, every strategy, equals serial."""

    @pytest.mark.parametrize("dataset", dataset_names())
    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_matches_serial(self, dataset, strategy):
        """``thread`` is the benchmark harness's alias: it runs the serial path."""
        graph, queries = _workload(dataset)
        executor = _assert_matches_serial(graph, queries, strategy)
        assert executor.strategy == executor.last_report.strategy == "serial"

    @pytest.mark.slow
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_process_matches_serial(self, dataset):
        graph, queries = _workload(dataset)
        _assert_matches_serial(graph, queries, "process")

    def test_process_smoke(self):
        """One unmarked fork-pool run so tier-1 covers the process path."""
        graph, queries = _workload("dblp")
        executor = _assert_matches_serial(graph, queries, "process")
        report = executor.last_report
        assert report.strategy == "process"
        assert report.chunks_retried == 0
        assert report.batch == len(queries)

    def test_small_chunks(self):
        graph, queries = _workload("dblp")
        executor = _assert_matches_serial(graph, queries, "process", chunk_size=1)
        assert executor.last_report.chunks == executor.last_report.searches

    def test_reports_memo_replay(self):
        graph, queries = _workload("dblp")
        executor = _assert_matches_serial(graph, queries, "process")
        report = executor.last_report
        assert report.batch == len(queries)
        # The duplicated tail must be served by replay, not re-searched.
        assert report.searches == BATCH


class TestMemoMirrorLRU:
    """The replay, not a mirror: ``run`` searches what the memo lacks on the
    pool, then puts the batch through ``_memo_answer`` itself in order, so
    the LRU evolves as a serial ``query_many``'s by construction. (The id is
    from the hand-written mirror of that LRU this class once held exact.)"""

    def test_warm_memo_hit_refreshes_recency(self):
        # Memo warmed with [A, B] at capacity 2, then the batch [A, C, B]:
        # the replay's hit on A refreshes A's recency (move_to_end), so
        # inserting C evicts B — B, memoized when the batch was planned, is
        # a *miss* at its turn and is searched there, in the replay. (The
        # mirror had to predict that; one that skipped hits without
        # reordering predicted B as a hit and died on fresh[B].)
        graph, _ = _workload("dblp")
        a, b, c = list(query_set(graph, 3, 3, seed=23))
        assert len({q.canonical_key() for q in (a, b, c)}) == 3
        batch = [a, c, b]

        ref_session = DSQL(graph, config=DSQLConfig(k=K, query_cache_size=2))
        ref_session.query_many([a, b])
        ref_dicts = [r.to_dict() for r in ref_session.query_many(batch)]

        session = DSQL(graph, config=DSQLConfig(k=K, query_cache_size=2))
        session.query_many([a, b])  # warm the memo: LRU order [A, B]
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(batch)

        assert [r.to_dict() for r in results] == ref_dicts
        assert executor.last_report.searches == 2  # C fresh, B re-searched
        assert session.stats.query_cache_hits == ref_session.stats.query_cache_hits
        assert session.stats.query_cache_misses == ref_session.stats.query_cache_misses

    @pytest.mark.parametrize("strategy", ["serial", "thread", "process"])
    @pytest.mark.parametrize("cap, searches", [(0, 4), (2, 4), (None, 2)])
    def test_run_is_serial_query_many_on_a_warm_memo(self, strategy, cap, searches):
        """Results, ``from_cache``, counters *and final memo key order*, for
        every cap and strategy, on a batch that does everything to a warm
        [A, B] memo of two: A hits; C and D miss and evict B then A; B — a
        hit when the batch was planned — misses at its turn and is searched
        in the replay; C, evicted meanwhile, misses again and is served the
        worker's result a second time; A misses like B. ``thread``, the
        benchmark harness's alias, is the serial path."""
        graph, _ = _workload("dblp")
        a, b, c, d = list(query_set(graph, 3, 4, seed=23))
        batch = [a, c, d, b, c, a]
        config = DSQLConfig(k=K, query_cache_size=cap)

        reference = DSQL(graph, config=config)
        reference.query_many([a, b])
        want = reference.query_many(batch)

        session = DSQL(graph, config=config)
        session.query_many([a, b])
        with BatchExecutor(session, strategy=strategy, jobs=2) as executor:
            results = executor.run(batch)
            report = executor.last_report

        assert [r.to_dict() for r in results] == [r.to_dict() for r in want]
        assert [r.from_cache for r in results] == [r.from_cache for r in want]
        assert session.stats.query_cache_hits == reference.stats.query_cache_hits
        assert session.stats.query_cache_misses == reference.stats.query_cache_misses
        assert list(session._query_cache) == list(reference._query_cache)
        assert report.strategy == ("process" if strategy == "process" else "serial")
        if cap == 2:
            assert [r.from_cache for r in results] == [True] + [False] * 5
            memo_keys = [key[1] for key in session._query_cache]
            assert memo_keys == [c.canonical_key(), a.canonical_key()]
        if strategy == "process":
            # Distinct structures searched once each: {C, D} on the pool plus
            # {B, A} in the replay at cap 2; all four on the pool with the
            # memo off; {C, D} alone when nothing is ever evicted.
            assert (report.searches, report.chunks_retried) == (searches, 0)


class TestDegradation:
    def test_crashed_worker_chunk_is_retried_serially(self, monkeypatch):
        """A dead pool still yields a complete, serial-identical batch."""
        graph, queries = _workload("dblp")
        _, ref_dicts = _serial_reference(graph, queries)

        def crash(payload):
            raise RuntimeError("worker died")

        # Fork inherits the patched module state, so both the parent-side
        # future and any child that runs see the crashing worker body.
        monkeypatch.setattr(pool_mod, "_run_chunk", crash)
        session = DSQL(graph, config=DSQLConfig(k=K))
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            results = executor.run(queries)
        assert [r.to_dict() for r in results] == ref_dicts
        report = executor.last_report
        assert report.chunks_retried == report.chunks > 0


class TestValidation:
    def test_unknown_strategy(self):
        graph, _ = _workload("dblp")
        with pytest.raises(ConfigError, match="strategy"):
            BatchExecutor(graph, k=K, strategy="gpu")

    def test_bad_jobs(self):
        graph, _ = _workload("dblp")
        with pytest.raises(ConfigError, match="jobs"):
            BatchExecutor(graph, k=K, jobs=0)

    def test_bad_chunk_size(self):
        graph, _ = _workload("dblp")
        with pytest.raises(ConfigError, match="chunk_size"):
            BatchExecutor(graph, k=K, chunk_size=0)

    def test_session_and_config_conflict(self):
        graph, _ = _workload("dblp")
        session = DSQL(graph, k=K)
        with pytest.raises(ValueError):
            BatchExecutor(session, config=DSQLConfig(k=K))

    def test_strategies_constant(self):
        assert STRATEGIES == ("serial", "process")


class TestDeadlineThroughExecutor:
    def test_tiny_time_budget_truncates_but_stays_valid(self, monkeypatch):
        import repro.isomorphism.backtrack as search_mod

        monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)
        graph, queries = _workload("dblp")
        config = DSQLConfig(k=K, time_budget_ms=1e-6, validate_results=True)
        with BatchExecutor(graph, config=config, strategy="process", jobs=2) as executor:
            results = executor.run(queries)
        assert len(results) == len(queries)
        assert any(r.stats.deadline_exhausted for r in results)
        assert all(not r.stats.budget_exhausted for r in results)
