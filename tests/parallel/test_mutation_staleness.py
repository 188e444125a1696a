"""Shared-memory staleness under live mutation: fail loudly, never lie.

Workers attached to a published graph may lag the parent by delta
mutations (they catch up by replaying the ops tail shipped with each
chunk) but can never survive a *compaction*: the parent's mutation log
restarted, the worker's copy is of a dead epoch with no tail to replay,
and the only acceptable outcome is
:class:`~repro.exceptions.StaleSegmentError` — a wrong answer computed from
the old topology is the one forbidden result. Publishing itself is a read:
it happens wherever in an epoch the graph stands and moves nothing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import make_dataset
from repro.exceptions import StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.shared import attach_graph, publish_graph
from repro.parallel import BatchExecutor, WorkerPool
from repro.queries.generator import query_set

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


class TestWorkerCatchUp:
    def test_workers_replay_delta_tail(self):
        graph, queries = _workload()
        config = DSQLConfig(k=K)
        session = DSQL(graph, config=config)
        with WorkerPool(graph, config, jobs=2) as pool:
            pid, pairs, _ = pool.submit(_chunk_of(session, queries)).result()
            u, v = _absent_pair(graph)
            graph.add_edge(u, v)
            graph.add_vertex("zz")
            # Workers at the old delta_seq must replay the tail and answer
            # against the post-mutation topology.
            _, pairs_after, _ = pool.submit(_chunk_of(session, queries)).result()
            rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
            reference = DSQL(rebuilt, config=config)
            want = {q.canonical_key(): reference.query(q) for q in queries}
            got = {key[1]: r for key, r in pairs_after}
            assert {k: r.to_dict() for k, r in got.items()} == {
                k: r.to_dict() for k, r in want.items()
            }

    def test_publish_compacts_dirty_overlay(self):
        """The opposite of its name (id kept): publishing a graph with
        pending deltas is a read. Version, plan cache and delta counter are
        left as found, the descriptor carries ``delta_seq > 0``, and the
        attached copy has the live topology at exactly that version."""
        graph, queries = _workload()
        session = DSQL(graph, config=DSQLConfig(k=K))
        u, v = _absent_pair(graph)
        graph.mutate([("add_edge", u, v)], compaction_threshold=None)
        session.query_many(queries)
        plans = graph.index_cache().plan_cache
        before = (graph.version, plans.info()["size"], graph.backend.delta_size)
        assert before[0][1] == 1 and before[1] > 0 and before[2] == 1
        with publish_graph(graph) as published:
            assert (graph.version, plans.info()["size"], graph.backend.delta_size) == before
            assert graph.index_cache().plan_cache is plans
            descriptor = published.descriptor
            assert (descriptor.epoch, descriptor.delta_seq) == before[0]
            attached = attach_graph(descriptor)
        assert attached.version == before[0]
        assert attached.has_edge(u, v)
        assert list(attached.edges()) == list(graph.edges())

    def test_process_batches_between_writes_move_nothing(self):
        """write → process batch → write → process batch: the pool is built
        on a dirty graph, the second write reaches its workers by replay."""
        graph, queries = _workload()
        config = DSQLConfig(k=K)
        session = DSQL(graph, config=config)
        session.query_many(queries)

        def reference():
            rebuilt = LabeledGraph(list(graph.labels), list(graph.edges()))
            return [r.to_dict() for r in DSQL(rebuilt, config=config).query_many(queries)]

        epoch = graph.version[0]
        u, v = _absent_pair(graph)
        with BatchExecutor(session, strategy="process", jobs=2) as executor:
            graph.mutate([("add_vertex", "zz"), ("add_edge", u, v)], compaction_threshold=None)
            plans = graph.index_cache().plan_cache
            state = (graph.version, plans.info()["size"], graph.backend.delta_size)
            assert state[0] == (epoch, 2)
            first = executor.run(queries)
            pool = executor.pool
            assert pool is not None and pool.descriptor.delta_seq == 2
            assert (graph.version, graph.backend.delta_size) == (state[0], state[2])
            assert plans.info()["size"] >= state[1] and graph.index_cache().plan_cache is plans
            assert [r.to_dict() for r in first] == reference()
            assert executor.last_report.chunks_retried == 0

            graph.mutate([("remove_edge", u, v)], compaction_threshold=None)
            assert graph.version == (epoch, 3)
            second = executor.run(queries)
            assert executor.pool is pool and not pool.stale  # same workers, caught up by replay
            assert graph.version == (epoch, 3)
            assert [r.to_dict() for r in second] == reference()
            assert executor.last_report.chunks_retried == 0


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
        graph, _ = _workload()
        published = publish_graph(graph)
        try:
            skewed = dataclasses.replace(published.descriptor, delta_seq=7)
            with pytest.raises(StaleSegmentError):
                attach_graph(skewed)
        finally:
            published.close()
            published.unlink()

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
            # The executor notices the stale pool, republisher included —
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
