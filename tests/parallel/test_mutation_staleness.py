"""Worker staleness under live mutation: fail loudly, never lie.

A worker pool serves the graph version it was built at. A write in the
parent makes the pool stale: ``submit`` refuses in the parent before
anything is pickled, and the executor's next batch starts fresh workers at
the new version. A worker refuses a chunk sent for any other version than
its own copy's, and the executor answers that chunk serially. The only
acceptable outcomes are a right answer or
:class:`~repro.exceptions.StaleSegmentError` — a wrong answer computed from
the old topology is the one forbidden result. ``compact()`` is not a write:
it stales nothing. Building a pool is a read: it happens at whatever
``delta_seq`` the graph stands and moves nothing. The write and checkpoint
cases run under both start methods (``TestEitherStartMethod``), inside a
process census.

Ids named after the catch-up protocol that was deleted (workers replaying
the parent's mutation log) keep their names and pin what the behaviour
became.
"""

from __future__ import annotations

import pickle

import pytest

import repro.parallel.pool as pool_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.exceptions import StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import BatchExecutor, WorkerPool, worker_graph
from repro.queries.generator import query_set
from tests.conftest import ProcessCensus, wait_until
from tests.parallel.conftest import START_METHODS

K = 4


def _workload(scale: float = 0.0001, queries: int = 4):
    graph = make_dataset("dblp", scale=scale, seed=13)
    return graph, list(query_set(graph, 3, queries, seed=17))


def _chunk_of(session: DSQL, queries):
    return [(session.memo_key(q), list(q.labels), list(q.edges())) for q in queries]


def _absent_pair(graph):
    u = 0
    v = next(x for x in range(1, graph.num_vertices) if not graph.has_edge(u, x))
    return u, v


def _refusing_submit(pool):
    """Make ``pool`` record instead of dispatch; returns what it shipped."""
    shipped = []
    pool._executor.submit = lambda *args: shipped.append(args)
    return shipped


def check_workers_replay_delta_tail():
    """A write makes the pool stale and ``submit`` refuses in the parent,
    before anything is pickled; a fresh pool answers like a rebuild."""
    graph, queries = _workload()
    config = DSQLConfig(k=K)
    session = DSQL(graph, config=config)
    with WorkerPool(graph, config, jobs=2) as pool:
        pool.submit(_chunk_of(session, queries)).result(timeout=120)
        assert not pool.stale and pool.version == graph.version
        u, v = _absent_pair(graph)
        graph.add_edge(u, v)
        graph.add_vertex("zz")
        assert pool.stale and pool.version != graph.version
        shipped = _refusing_submit(pool)
        with pytest.raises(StaleSegmentError, match="must be replaced"):
            pool.submit(_chunk_of(session, queries))
        assert shipped == []
    with WorkerPool(graph, config, jobs=2) as fresh:
        assert not fresh.stale and fresh.version == graph.version
        _, pairs, _ = fresh.submit(_chunk_of(session, queries)).result(timeout=120)
    rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
    reference = DSQL(rebuilt, config=config)
    want = {q.canonical_key(): reference.query(q) for q in queries}
    got = {key[1]: r for key, r in pairs}
    assert {k: r.to_dict() for k, r in got.items()} == {
        k: r.to_dict() for k, r in want.items()
    }


def _rebuilt_answers(graph, queries, config):
    rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
    return [r.to_dict() for r in DSQL(rebuilt, config=config).query_many(queries)]


def _workers(executor):
    return {pid for pid, _ in executor.last_report.per_worker}


def _processes(pool):
    return {process.pid for process in pool._executor._processes.values()}


def check_process_batches_between_writes_move_nothing():
    """write → batch → batch → write → batch: the pool is built on a dirty
    graph and moves nothing; with no write between two batches the second
    runs on the same workers; a write between them starts fresh workers,
    and the old ones are reaped."""
    graph, queries = _workload()
    config = DSQLConfig(k=K, query_cache_size=0)  # every batch reaches the pool
    session = DSQL(graph, config=config)
    session.query_many(queries)

    epoch = graph.version[0]
    u, v = _absent_pair(graph)
    census = ProcessCensus()
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        graph.mutate([("add_vertex", "zz"), ("add_edge", u, v)], compaction_threshold=None)
        plans = graph.index_cache().plan_cache
        state = (graph.version, plans.info()["size"], graph.delta_size)
        assert state[0] == (epoch, 2)
        first = executor.run(queries)
        pool = executor.pool
        assert pool is not None and pool.version == (epoch, 2)
        assert (graph.version, graph.delta_size) == (state[0], state[2])
        assert plans.info()["size"] >= state[1] and graph.index_cache().plan_cache is plans
        assert [r.to_dict() for r in first] == _rebuilt_answers(graph, queries, config)
        assert executor.last_report.chunks_retried == 0
        old = _processes(pool)
        assert _workers(executor) <= old <= census.new_children()

        again = executor.run(queries)
        assert executor.pool is pool and not pool.stale
        assert _workers(executor) <= old and _processes(pool) == old
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]

        graph.mutate([("remove_edge", u, v)], compaction_threshold=None)
        assert graph.version == (epoch, 3) and pool.stale
        second = executor.run(queries)
        assert executor.pool is not pool and executor.pool.version == (epoch, 3)
        assert graph.version == (epoch, 3)
        assert [r.to_dict() for r in second] == _rebuilt_answers(graph, queries, config)
        assert executor.last_report.chunks_retried == 0
        fresh = _processes(executor.pool)
        assert _workers(executor) <= fresh and fresh.isdisjoint(old)
        assert wait_until(lambda: census.new_children().isdisjoint(old), 30), census.report()
    # Every worker either pool started is gone (spawn's resource tracker,
    # started on first use, may stay: it is not a worker).
    assert wait_until(lambda: census.new_children().isdisjoint(old | fresh), 30), census.report()


def check_caught_up_pool_survives_a_checkpoint():
    """write → pool → compact → batch → write → batch: the checkpoint
    changes no version and stales nothing — the same workers answer after
    it — and the write after it starts fresh ones."""
    graph, queries = _workload()
    config = DSQLConfig(k=K, query_cache_size=0)  # every batch reaches the pool
    session = DSQL(graph, config=config)
    u, v = _absent_pair(graph)
    census = ProcessCensus()
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        graph.add_edge(u, v)  # the last write before the pool is built
        executor.run(queries)
        pool = executor.pool
        workers = _processes(pool)
        assert _workers(executor) <= workers <= census.new_children()
        version = graph.version
        graph.compact()
        assert graph.version == version == pool.version and not pool.stale
        after = executor.run(queries)
        assert executor.pool is pool and not pool.stale
        assert executor.last_report.chunks_retried == 0
        assert workers <= census.new_children()  # nobody was replaced
        assert [r.to_dict() for r in after] == _rebuilt_answers(graph, queries, config)
        graph.remove_edge(u, v)
        assert pool.stale
        later = executor.run(queries)
        assert executor.pool is not pool and executor.last_report.chunks_retried == 0
        assert _workers(executor).isdisjoint(workers)
        assert [r.to_dict() for r in later] == _rebuilt_answers(graph, queries, config)
    assert census.settled(), census.report()


def check_pool_behind_the_checkpoint_is_rebuilt():
    """pool → write → compact: the write staled the pool, the checkpoint
    neither caused that nor cures it. ``submit`` refuses in the parent
    before anything is pickled, and the executor's pre-dispatch check
    replaces the pool without retrying a chunk."""
    graph, queries = _workload()
    config = DSQLConfig(k=K, query_cache_size=0)
    session = DSQL(graph, config=config)
    u, v = _absent_pair(graph)
    census = ProcessCensus()
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        executor.run(queries)
        pool = executor.pool
        graph.add_edge(u, v)
        assert pool.stale  # the write alone
        graph.compact()
        assert pool.stale and pool.version != graph.version
        shipped = _refusing_submit(pool)
        with pytest.raises(StaleSegmentError, match="must be replaced"):
            pool.submit(_chunk_of(session, queries))
        assert shipped == []
        results = executor.run(queries)
        assert executor.pool is not pool and not executor.pool.stale
        assert shipped == [] and executor.last_report.chunks_retried == 0
        assert [r.to_dict() for r in results] == _rebuilt_answers(graph, queries, config)
    assert census.settled(), census.report()


class TestWorkerCatchUp:
    """On the start method the platform selects."""

    def test_workers_replay_delta_tail(self):
        check_workers_replay_delta_tail()

    def test_publish_compacts_dirty_overlay(self):
        """The opposite of its name (id kept): building a pool on a graph
        with pending deltas is a read. Version, plan-cache object and size,
        and delta counter are left as found, the pool serves the version at
        ``delta_seq > 0``, and its workers answer on the live topology at
        exactly that version."""
        graph, queries = _workload()
        config = DSQLConfig(k=K)
        session = DSQL(graph, config=config)
        u, v = _absent_pair(graph)
        graph.mutate([("add_edge", u, v)], compaction_threshold=None)
        session.query_many(queries)
        plans = graph.index_cache().plan_cache
        before = (graph.version, plans.info()["size"], graph.delta_size)
        assert before[0][1] == 1 and before[1] > 0 and before[2] == 1
        with WorkerPool(graph, config, jobs=1) as pool:
            assert pool.version == before[0]
            _, pairs, _ = pool.submit(_chunk_of(session, queries)).result(timeout=120)
            assert (graph.version, plans.info()["size"], graph.delta_size) == before
            assert graph.index_cache().plan_cache is plans
        rebuilt = DSQL(LabeledGraph(list(graph.labels), list(graph.edges())), config=config)
        assert [r.to_dict() for _, r in pairs] == [rebuilt.query(q).to_dict() for q in queries]
        started = worker_graph(graph)
        assert started.version == before[0] and started.has_edge(u, v)
        assert list(started.edges()) == list(graph.edges())

    def test_process_batches_between_writes_move_nothing(self):
        check_process_batches_between_writes_move_nothing()


@pytest.mark.parametrize("start_method", START_METHODS, indirect=True)
class TestEitherStartMethod:
    """On both sides of the platform choice: a spawned worker gets its
    graph by pickle at *its* start, a forked one by inheritance at the first
    submit; either serves the version the pool was built at."""

    def test_workers_replay_delta_tail(self, start_method):
        check_workers_replay_delta_tail()

    def test_process_batches_between_writes_move_nothing(self, start_method):
        check_process_batches_between_writes_move_nothing()

    def test_caught_up_pool_survives_a_checkpoint(self, start_method):
        check_caught_up_pool_survives_a_checkpoint()

    def test_pool_behind_the_checkpoint_is_rebuilt(self, start_method):
        check_pool_behind_the_checkpoint_is_rebuilt()


class TestCompactionStaleness:
    def test_pool_goes_stale_on_compaction(self):
        graph, queries = _workload()
        config = DSQLConfig(k=K)
        session = DSQL(graph, config=config)
        with WorkerPool(graph, config, jobs=1) as pool:
            pool.submit(_chunk_of(session, queries)).result()
            assert pool.stale is False
            u, v = _absent_pair(graph)
            graph.add_edge(u, v)
            graph.compact()
            assert pool.stale is True
            with pytest.raises(StaleSegmentError):
                pool.submit(_chunk_of(session, queries))

    def test_attach_rejects_delta_seq_mismatch(self, monkeypatch):
        """Was: a descriptor with a skewed ``delta_seq`` does not attach.
        The same skew now arrives as a chunk's version: a worker whose copy
        is at another ``(epoch, delta_seq)`` refuses the chunk with
        ``StaleSegmentError``, and through the executor that chunk is
        answered serially, correctly."""
        graph, queries = _workload()
        config = DSQLConfig(k=K, query_cache_size=0)
        session = DSQL(graph, config=config)
        chunk = _chunk_of(session, queries)
        # The worker body, in this process, on a spawned worker's private
        # copy: the initializer, then chunks.
        monkeypatch.setattr(pool_mod, "_WORKER_SESSION", None)
        pool_mod._init_worker(pickle.loads(pickle.dumps(graph)), config)
        epoch, seq = graph.version
        for skewed in ((epoch, seq + 1), (epoch, seq - 1), (epoch + 1, seq)):
            with pytest.raises(StaleSegmentError, match=r"reached a worker whose copy"):
                pool_mod._run_chunk((skewed, chunk))
        _, pairs, _ = pool_mod._run_chunk(((epoch, seq), chunk))
        assert [r.to_dict() for _, r in pairs] == [r.to_dict() for r in session.query_many(queries)]

        # A parent that misses the write sends the old version; the workers,
        # started after the write, refuse every chunk.
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            pool = executor._ensure_pool()
            u, v = _absent_pair(graph)
            graph.add_edge(u, v)
            monkeypatch.setattr(WorkerPool, "stale", property(lambda self: False))
            results = executor.run(queries)
            report = executor.last_report
            assert executor.pool is pool and pool.version != graph.version
            assert report.chunks > 0 and report.chunks_retried == report.chunks
            assert report.per_worker == ()
            assert [r.to_dict() for r in results] == _rebuilt_answers(graph, queries, config)

    def test_executor_rebuilds_pool_after_compaction(self):
        graph, queries = _workload()
        config = DSQLConfig(k=K)
        session = DSQL(graph, config=config)
        executor = BatchExecutor(session, strategy="process", jobs=2)
        try:
            executor.run(queries)
            u, v = _absent_pair(graph)
            graph.add_edge(u, v)
            graph.compact()
            # The executor notices the stale pool and starts fresh workers —
            # answers must match a from-scratch session, with no retries
            # leaking a pre-compaction result.
            results = executor.run(queries)
            rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
            reference = DSQL(rebuilt, config=config)
            for got, want in zip(results, reference.query_many(queries)):
                assert got.embeddings == want.embeddings
                assert got.coverage == want.coverage
        finally:
            executor.close()
