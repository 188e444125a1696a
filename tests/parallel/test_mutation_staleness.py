"""Worker staleness under live mutation: fail loudly, never lie.

Pool workers hold their own copy of the graph and may lag the parent by
delta mutations (they catch up by replaying the ops tail shipped with each
chunk). A *compaction* empties the parent's mutation log and nothing else:
a pool built after the last write has no tail to fetch and carries on with
the same workers; a pool the truncation passed — a write sits between its
build and the checkpoint — can no longer be caught up, and the only
acceptable outcome is :class:`~repro.exceptions.StaleSegmentError` — a wrong
answer computed from the old topology is the one forbidden result. Building
a pool is a read: it happens at whatever ``delta_seq`` the graph stands and
moves nothing. The catch-up and checkpoint cases run under both start
methods (``TestEitherStartMethod``), inside a process census.
"""

from __future__ import annotations

import pytest

import repro.parallel.pool as pool_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.exceptions import StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import BatchExecutor, WorkerPool, worker_graph
from repro.queries.generator import query_set
from tests.conftest import ProcessCensus
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


def check_workers_replay_delta_tail():
    graph, queries = _workload()
    config = DSQLConfig(k=K)
    session = DSQL(graph, config=config)
    with WorkerPool(graph, config, jobs=2) as pool:
        pid, pairs, _ = pool.submit(_chunk_of(session, queries)).result(timeout=120)
        u, v = _absent_pair(graph)
        graph.add_edge(u, v)
        graph.add_vertex("zz")
        # Workers at the old delta_seq must replay the tail and answer
        # against the post-mutation topology.
        _, pairs_after, _ = pool.submit(_chunk_of(session, queries)).result(timeout=120)
        rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
        reference = DSQL(rebuilt, config=config)
        want = {q.canonical_key(): reference.query(q) for q in queries}
        got = {key[1]: r for key, r in pairs_after}
        assert {k: r.to_dict() for k, r in got.items()} == {
            k: r.to_dict() for k, r in want.items()
        }


def _rebuilt_answers(graph, queries, config):
    rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
    return [r.to_dict() for r in DSQL(rebuilt, config=config).query_many(queries)]


def check_process_batches_between_writes_move_nothing():
    """write → process batch → write → process batch: the pool is built
    on a dirty graph, the second write reaches its workers by replay."""
    graph, queries = _workload()
    config = DSQLConfig(k=K)
    session = DSQL(graph, config=config)
    session.query_many(queries)

    epoch = graph.version[0]
    u, v = _absent_pair(graph)
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        graph.mutate([("add_vertex", "zz"), ("add_edge", u, v)], compaction_threshold=None)
        plans = graph.index_cache().plan_cache
        state = (graph.version, plans.info()["size"], graph.delta_size)
        assert state[0] == (epoch, 2)
        first = executor.run(queries)
        pool = executor.pool
        assert pool is not None and (graph.version[0], pool._base_seq) == (epoch, 2)
        assert (graph.version, graph.delta_size) == (state[0], state[2])
        assert plans.info()["size"] >= state[1] and graph.index_cache().plan_cache is plans
        assert [r.to_dict() for r in first] == _rebuilt_answers(graph, queries, config)
        assert executor.last_report.chunks_retried == 0

        graph.mutate([("remove_edge", u, v)], compaction_threshold=None)
        assert graph.version == (epoch, 3)
        second = executor.run(queries)
        assert executor.pool is pool and not pool.stale  # same workers, caught up by replay
        assert graph.version == (epoch, 3)
        assert [r.to_dict() for r in second] == _rebuilt_answers(graph, queries, config)
        assert executor.last_report.chunks_retried == 0


def check_caught_up_pool_survives_a_checkpoint():
    """write → pool → compact → batch → write → batch, the same workers
    throughout: the checkpoint changes no version and strands nothing."""
    graph, queries = _workload()
    config = DSQLConfig(k=K, query_cache_size=0)  # every batch reaches the pool
    session = DSQL(graph, config=config)
    u, v = _absent_pair(graph)
    census = ProcessCensus()
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        graph.add_edge(u, v)  # the last write before the pool is built
        executor.run(queries)
        pool, workers = executor.pool, census.new_children()
        assert {pid for pid, _ in executor.last_report.per_worker} <= workers
        version = graph.version
        graph.compact()
        assert graph.version == version and not pool.stale
        assert graph.index_cache().ops_since(pool._base_seq) == ()
        after = executor.run(queries)
        assert executor.pool is pool and not pool.stale
        assert executor.last_report.chunks_retried == 0
        assert workers <= census.new_children()  # nobody was replaced
        assert [r.to_dict() for r in after] == _rebuilt_answers(graph, queries, config)
        # The pool sits exactly at the floor: a later write is the whole tail.
        graph.remove_edge(u, v)
        assert graph.index_cache().ops_since(pool._base_seq) == (
            (version[1] + 1, ("remove_edge", u, v)),
        )
        later = executor.run(queries)
        assert executor.pool is pool and executor.last_report.chunks_retried == 0
        assert [r.to_dict() for r in later] == _rebuilt_answers(graph, queries, config)
    assert census.settled(), census.report()


def check_pool_behind_the_checkpoint_is_rebuilt():
    """pool → write → compact: the truncation passed the pool. It says so,
    ``submit`` refuses in the parent before anything is pickled, and the
    executor's pre-dispatch check replaces it without retrying a chunk."""
    graph, queries = _workload()
    config = DSQLConfig(k=K, query_cache_size=0)
    session = DSQL(graph, config=config)
    u, v = _absent_pair(graph)
    census = ProcessCensus()
    with BatchExecutor(session, strategy="process", jobs=2) as executor:
        executor.run(queries)
        pool = executor.pool
        graph.add_edge(u, v)
        assert not pool.stale  # a write alone is caught up by replay
        graph.compact()
        assert pool.stale and pool._base_seq < graph.index_cache().log_floor
        shipped = []
        pool._executor.submit = lambda *args: shipped.append(args)
        with pytest.raises(StaleSegmentError, match="behind the mutation log"):
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
        and delta counter are left as found, the pool is pinned at
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
            assert (graph.version[0], pool._base_seq) == before[0]
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
    """Catch-up on both sides of the platform choice: a spawned worker gets
    its graph by pickle at *its* start, a forked one by inheritance at the
    first submit; each finds its place from its own ``graph.version``."""

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

    def test_attach_rejects_delta_seq_mismatch(self):
        """Was: a descriptor with a skewed ``delta_seq`` does not attach.
        The same skew now arrives in a chunk's sync header: a tail that does
        not start right after the worker's version, or ends short of the
        target, severs the replay chain — ``StaleSegmentError``, and the
        worker's graph is left where it was."""
        graph, _ = _workload()
        u, v = _absent_pair(graph)
        graph.index_cache()
        twin = worker_graph(graph)
        epoch, seq = twin.version
        gap = ((seq + 2, ("add_edge", u, v)),)
        with pytest.raises(StaleSegmentError, match="catch-up failed"):
            pool_mod._apply_sync(twin, (epoch, seq + 2, gap))
        with pytest.raises(StaleSegmentError, match="fell short"):
            pool_mod._apply_sync(twin, (epoch, seq + 7, ()))
        assert twin.version == (epoch, seq) and not twin.has_edge(u, v)

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
