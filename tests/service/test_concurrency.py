"""Concurrency determinism: parallel clients == serial ``query_many``.

The service's core correctness promise under load: any interleaving of
concurrent requests produces, for every query, exactly the embeddings a
serial ``query_many`` stream would have produced — the memo lock plus the
deterministic search make thread scheduling unobservable in the results.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.service import ServiceClient
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries


def _serial_reference(queries):
    session = DSQL(tiny_graph(), config=DSQLConfig(k=DEFAULT_K))
    return {
        q.canonical_key(): r for q, r in zip(queries, session.query_many(queries))
    }


def _hammer(server, queries, threads):
    """Each thread sends every query; returns per-thread response lists."""
    responses = [None] * threads
    errors = []

    def worker(slot):
        client = ServiceClient(server.url, timeout=60.0)
        try:
            responses[slot] = [client.query("tiny", q) for q in queries]
        except Exception as exc:  # surfaced below; bare thread would hide it
            errors.append(exc)

    workers = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not errors, errors
    assert all(r is not None for r in responses)
    return responses


def _assert_matches_reference(responses, queries, reference):
    for thread_responses in responses:
        for query, body in zip(queries, thread_responses):
            want = reference[query.canonical_key()]
            assert body["embeddings"] == [list(e) for e in want.embeddings]
            assert body["coverage"] == want.coverage


class TestConcurrentDeterminism:
    def test_concurrent_clients_bit_identical_to_serial(self, server):
        queries = tiny_queries(count=4, seed=51)
        reference = _serial_reference(queries)
        responses = _hammer(server, queries, threads=8)
        _assert_matches_reference(responses, queries, reference)

    def test_mixed_point_and_batch_traffic(self, server):
        queries = tiny_queries(count=3, seed=52)
        reference = _serial_reference(queries)
        batch_bodies = []

        def batch_worker():
            client = ServiceClient(server.url, timeout=60.0)
            batch_bodies.append(client.batch("tiny", queries))

        batcher = threading.Thread(target=batch_worker, daemon=True)
        batcher.start()
        responses = _hammer(server, queries, threads=4)
        batcher.join(timeout=120)
        _assert_matches_reference(responses, queries, reference)
        assert len(batch_bodies) == 1
        for query, body in zip(queries, batch_bodies[0]["results"]):
            want = reference[query.canonical_key()]
            assert body["embeddings"] == [list(e) for e in want.embeddings]

    @pytest.mark.slow
    def test_sustained_concurrency(self, server):
        """Heavier soak: more threads, more distinct query structures."""
        queries = tiny_queries(count=12, edges=4, seed=53)
        reference = _serial_reference(queries)
        responses = _hammer(server, queries, threads=12)
        _assert_matches_reference(responses, queries, reference)
