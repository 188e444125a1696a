"""How a graph reaches a worker process, now that nothing is published.

This file tested ``repro.graph.shared`` — publish a graph to shared-memory
segments, attach it in a worker. That transport is deleted: a worker is
*started with the graph* (inherited under ``fork``, pickled under ``spawn``)
and wraps its storage with :func:`repro.parallel.worker_graph`. Every test id
is kept; each docstring says what the id pins now. The contract is the same
one: the worker's graph is *equivalent* to the parent's (same topology,
labels, version, bit-identical query answers), it is a private copy,
handing it over is a read, and a worker that cannot reach the parent's
version fails loudly with a typed error instead of serving wrong answers.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.exceptions
import repro.parallel.pool as pool_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.exceptions import ReproError, StaleSegmentError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.parallel import WorkerPool, worker_graph
from tests.conftest import ProcessCensus, resident_arrays

K = 3


def _graph() -> LabeledGraph:
    labels = ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a"]
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        (7, 8), (8, 9), (0, 2), (1, 3), (4, 6), (5, 7), (0, 9),
    ]
    return LabeledGraph(labels, edges, name="shared-test")


def _queries():
    return [
        QueryGraph(["a", "b"], [(0, 1)]),
        QueryGraph(["b", "c"], [(0, 1)]),
        QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)]),
    ]


def _answers(graph: LabeledGraph):
    return [r.to_dict() for r in DSQL(graph, k=K).query_many(_queries())]


def _chunk():
    return [(q.canonical_key(), list(q.labels), list(q.edges())) for q in _queries()]


def spawned(graph: LabeledGraph) -> LabeledGraph:
    """``graph`` as a spawned worker serves it: unpickled, then the helper."""
    return worker_graph(pickle.loads(pickle.dumps(graph)))


@pytest.fixture
def source_graph():
    graph = _graph()
    graph.index_cache()
    return graph


class TestRoundTrip:
    def test_topology_and_labels_survive(self, source_graph):
        """The pickle round trip a spawned worker's graph makes."""
        got = spawned(source_graph)
        assert got.name == source_graph.name
        assert got.num_vertices == source_graph.num_vertices
        assert got.num_edges == source_graph.num_edges
        assert list(got.labels) == list(source_graph.labels)
        assert list(got.edges()) == list(source_graph.edges())
        for v in source_graph.vertices():
            assert got.neighbors(v) == source_graph.neighbors(v)
            assert got.neighbor_set(v) == source_graph.neighbor_set(v)
            assert got.degree(v) == source_graph.degree(v)

    def test_query_results_bit_identical(self, source_graph):
        """A worker's graph — by pickle, and by the helper alone as a forked
        worker gets it — answers exactly like the parent's."""
        serial = _answers(source_graph)
        assert _answers(spawned(source_graph)) == serial
        assert _answers(worker_graph(source_graph)) == serial

    def test_arrays_are_views_not_copies(self, source_graph):
        """Was: the attached arrays alias the segments. There are no arrays:
        a pickled graph is plain-``int`` rows and sets, and the helper's
        shallow copy keeps the storage it is given (under ``fork`` the
        worker's inherited pages) instead of copying it."""
        served = worker_graph(source_graph)
        assert served is not source_graph
        assert served._rows is source_graph._rows and served._sets is source_graph._sets
        got = spawned(source_graph)
        assert got._rows is not source_graph._rows and not resident_arrays(got)
        for v in got.vertices():
            assert all(type(w) is int for w in got.neighbors(v))
            assert all(type(w) is int for w in got.neighbor_set(v))
        assert all(type(i) is int for i in got.label_id_sequence())
        degrees = got.index_cache().degrees
        assert degrees == source_graph.degree_sequence()
        assert degrees is not source_graph.index_cache().degrees
        assert all(type(d) is int for d in degrees)

    def test_index_cache_preseeded_with_same_epoch(self, source_graph):
        """The helper's graph, by either route: a cache of its own at the
        parent's version, seeded with the signature table, and every lock a
        new object."""
        source_graph.add_edge(0, 5)
        cache = source_graph.index_cache()
        cache.cost_estimator()
        for route in (worker_graph, spawned):
            got = route(source_graph).index_cache()
            assert got is not cache and got.graph is not source_graph
            assert got.version == cache.version == (cache.epoch, 1)
            assert got.label_index == cache.label_index
            assert got.signature_masks == cache.signature_masks
            assert got.signature_masks is not cache.signature_masks
            assert got._pool_lock is not cache._pool_lock
            assert got._adj_lock is not cache._adj_lock
            assert got.plan_cache is not cache.plan_cache
            assert got.plan_cache._lock is not cache.plan_cache._lock
            assert got._cost_estimator is None and got._metrics is None
            assert got._mutation_log == [] and not got._pool_memo

    def test_pickle_ships_no_memo_a_read_can_touch(self, source_graph):
        """Under ``spawn`` a worker's start pickles the graph from the
        submitting thread, under the service's *read* lock — beside point
        queries that insert into the cache's memos. None of those dicts is
        in the pickled state (a dict that grows while the pickler iterates
        it raises), and the unpickled cache starts with empty ones."""
        session = DSQL(source_graph, k=K)
        session.query_many(_queries())
        cache = source_graph.index_cache()
        cache.signature(0)
        cache.adjacency_mask(0)
        assert cache._pool_memo and cache._mask_signatures and cache._adj_masks
        assert cache.plan_cache.info()["size"] > 0
        state = cache.__getstate__()
        read_mutated = {"_pool_memo", "_pool_keys", "_mask_signatures", "_adj_masks", "plan_cache"}
        assert not read_mutated & set(state)
        got = pickle.loads(pickle.dumps(source_graph)).index_cache()
        assert got.version == cache.version and got.signature_masks == cache.signature_masks
        assert not got._pool_memo and not got._pool_keys and not got._mask_signatures
        assert not got._adj_masks and got.plan_cache.info()["size"] == 0
        assert _answers(got.graph) == _answers(source_graph)

    def test_nbytes_accounts_for_arrays(self, source_graph):
        """Was: the segments are at least as big as the arrays. A pool holds
        no shared memory at all — ``shared_nbytes`` is the constant the
        frozen benchmark harness still reads — and what crosses under
        ``spawn`` is one pickle that carries the whole graph."""
        census = ProcessCensus()
        with WorkerPool(source_graph, DSQLConfig(k=K), jobs=1) as pool:
            pool.submit(_chunk()).result(timeout=60)
            assert pool.shared_nbytes == 0
            assert not census.new_shm()
        blob = pickle.dumps(source_graph)
        assert pickle.loads(blob).num_edges == source_graph.num_edges
        assert len(blob) > 8 * source_graph.num_edges

    def test_publishing_is_a_read(self, source_graph):
        """Building a pool on a graph with pending deltas, and answering on
        it, is a read: version, plan cache and delta counter untouched, and
        a worker's graph is the live topology at exactly that version."""
        session = DSQL(source_graph, k=K)
        session.query_many(_queries())
        source_graph.mutate(
            [("add_vertex", "a"), ("add_edge", 10, 4), ("remove_edge", 0, 9)],
            compaction_threshold=None,
        )
        session.query_many(_queries())
        plans = source_graph.index_cache().plan_cache
        before = (source_graph.version, plans.info(), source_graph.delta_size)
        assert before[0][1] == 3 and before[1]["size"] > 0 and before[2] == 2
        rebuilt = LabeledGraph(list(source_graph.labels), list(source_graph.edges()))
        want = _answers(rebuilt)
        with WorkerPool(source_graph, session.config, jobs=1) as pool:
            _, pairs, _ = pool.submit(_chunk()).result(timeout=60)
            assert [r.to_dict() for _, r in pairs] == want
            assert (source_graph.version, plans.info(), source_graph.delta_size) == before
            assert source_graph.index_cache().plan_cache is plans
        got = spawned(source_graph)
        assert got.version == before[0]
        assert list(got.edges()) == list(source_graph.edges())
        assert list(got.labels) == list(source_graph.labels)
        assert _answers(got) == want


def _serve_and_scribble(graph: LabeledGraph, conn) -> None:
    """Child body: answer on the worker graph, then write all over it."""
    twin = worker_graph(graph)
    answers = _answers(twin)
    twin.add_edge(0, 5)
    twin.add_vertex("z")
    twin.compact()
    conn.send((answers, twin.num_edges))
    conn.close()


def _worker_exit(method: str, graph: LabeledGraph):
    """Start one worker process with ``graph``, let it answer, mutate its
    copy and exit; returns what it sent back."""
    ctx = multiprocessing.get_context(method)
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_serve_and_scribble, args=(graph, child_conn))
    process.start()
    child_conn.close()
    assert parent_conn.poll(120)
    sent = parent_conn.recv()
    process.join(60)
    assert process.exitcode == 0
    parent_conn.close()
    return sent


class TestLifecycle:
    def test_attach_after_unlink_raises(self, source_graph):
        """Was: attaching unlinked segments raises. There is nothing to
        unlink or attach: the module is gone, and a forked worker's exit
        leaves the parent's graph answering and ``/dev/shm`` as found."""
        assert importlib.util.find_spec("repro.graph.shared") is None
        want, edges = _answers(source_graph), source_graph.num_edges
        census = ProcessCensus()
        answers, worker_edges = _worker_exit("fork", source_graph)
        assert answers == want and worker_edges == edges + 1
        assert _answers(source_graph) == want and source_graph.num_edges == edges
        assert not source_graph.has_edge(0, 5)
        assert census.settled(), census.report()

    def test_stale_epoch_raises(self, source_graph):
        """A worker whose graph is of another epoch than the chunk's sync
        header refuses to answer — the check the forged descriptor tripped."""
        twin = worker_graph(source_graph)
        epoch, seq = twin.version
        pool_mod._apply_sync(twin, (epoch, seq, ()))
        with pytest.raises(StaleSegmentError, match="cannot reach epoch"):
            pool_mod._apply_sync(twin, (epoch + 1, seq, ()))
        assert twin.version == (epoch, seq)

    def test_stale_is_a_shared_memory_error(self):
        """Was: ``StaleSegmentError`` subclasses the segment-lifecycle error.
        That class went with its raisers; staleness is its own error,
        directly under the library's base."""
        assert StaleSegmentError.__bases__ == (ReproError,)
        assert not hasattr(repro.exceptions, "SharedMemoryError")

    def test_old_format_is_refused(self, source_graph):
        """Was: a segment of another format version is refused. There is no
        format to version — the storage crosses as the objects it is — and a
        spawned worker's exit leaves the parent's graph answering and no
        segment behind."""
        assert not hasattr(LabeledGraph, "to_arrays") and not hasattr(LabeledGraph, "from_arrays")
        want = _answers(source_graph)
        before = ProcessCensus()
        answers, _ = _worker_exit("spawn", source_graph)
        assert answers == want == _answers(source_graph)
        leftovers = {name for name in before.new_shm() if not name.startswith("sem.mp-")}
        assert not leftovers

    def test_publish_close_unlink_idempotent(self, source_graph):
        """Closing a pool twice is harmless, whether or not it ever started
        a worker."""
        census = ProcessCensus()
        idle = WorkerPool(source_graph, DSQLConfig(k=K), jobs=1)
        idle.close()
        idle.close()
        used = WorkerPool(source_graph, DSQLConfig(k=K), jobs=1)
        used.submit(_chunk()).result(timeout=60)
        used.close()
        used.close()
        assert census.settled(), census.report()

    def test_close_with_live_views_raises_typed_error(self, source_graph):
        """Was: a view of a segment outliving the copy fails the attach. A
        view cannot outlive anything now: the parent may keep any row or set
        of its graph across a worker's whole life, and finds them untouched
        after the worker wrote to its own copy and exited."""
        rows = [source_graph.neighbors(v) for v in source_graph.vertices()]
        sets = [source_graph.neighbor_set(v) for v in source_graph.vertices()]
        kept = [set(s) for s in sets]
        _worker_exit("fork", source_graph)
        for v in source_graph.vertices():
            assert source_graph.neighbors(v) is rows[v]
            assert source_graph.neighbor_set(v) is sets[v] and sets[v] == kept[v]

    def test_attachment_close_idempotent(self, source_graph):
        """Was: closing an attachment twice is harmless. With nothing to
        close, what remains to pin is that two workers' copies of one graph
        are independent."""
        first = spawned(source_graph)
        second = spawned(source_graph)
        assert first is not second and first._rows is not second._rows
        first.add_edge(0, 5)
        first.add_vertex("z")
        first.compact()
        assert not second.has_edge(0, 5) and not source_graph.has_edge(0, 5)
        assert second.num_vertices == source_graph.num_vertices
        assert second.version == source_graph.version != first.version
        assert list(spawned(source_graph).edges()) == list(source_graph.edges())

    def test_unlink_while_attached_keeps_mapping_alive(self):
        """Was: POSIX keeps an attached mapping alive past the unlink. A
        worker's copy needs no such grace: it depends on nothing of the
        graph it was made from, which may change or go away at once."""
        graph = _graph()
        reference = DSQL(graph, k=K).query(_queries()[0]).to_dict()
        copied = spawned(graph)
        graph.mutate([("remove_edge", 0, 1), ("remove_edge", 1, 2)])
        del graph
        assert DSQL(copied, k=K).query(_queries()[0]).to_dict() == reference
        assert copied.add_edge(0, 5) and copied.has_edge(5, 0)  # and is writable

    def test_republish_same_graph_keeps_epoch_changes_token(self, source_graph):
        """Two pools on one live graph share its epoch — it is the index
        cache's identity, not a pool's — and nothing else: each has its own
        workers, and closing one leaves the other answering."""
        config = DSQLConfig(k=K)
        with WorkerPool(source_graph, config, jobs=1) as first:
            second = WorkerPool(source_graph, config, jobs=1)
            try:
                # A worker refuses a chunk of another epoch, so both pools
                # answering below is what shows the epoch is shared.
                assert first._graph is second._graph is source_graph
                assert first._base_seq == second._base_seq == source_graph.version[1]
                pid_a, pairs_a, _ = first.submit(_chunk()).result(timeout=60)
                pid_b, pairs_b, _ = second.submit(_chunk()).result(timeout=60)
                assert pid_a != pid_b
            finally:
                second.close()
            _, again, _ = first.submit(_chunk()).result(timeout=60)
        want = _answers(source_graph)
        for pairs in (pairs_a, pairs_b, again):
            assert [r.to_dict() for _, r in pairs] == want


class TestForeignTrackerSurvival:
    """A worker's exit must never cost the parent its graph.

    The class guarded the resource-tracker workaround: a process with its
    own tracker used to unlink the publisher's segments when it exited.
    With no segment there is no tracker entry to get wrong; the ids keep
    the scenario — a process that is not a fork child takes the graph,
    serves it, exits — and assert what must hold after it.
    """

    def test_segments_survive_spawn_worker_exit(self, source_graph):
        want = _answers(source_graph)
        answers, _ = _worker_exit("spawn", source_graph)
        assert answers == want
        assert _answers(source_graph) == want
        with WorkerPool(source_graph, DSQLConfig(k=K), jobs=1) as pool:
            _, pairs, _ = pool.submit(_chunk()).result(timeout=60)
        assert [r.to_dict() for _, r in pairs] == want

    def test_segments_survive_independent_process_exit(self, source_graph, tmp_path):
        """An independently launched interpreter — its own resource tracker,
        nothing inherited — loads the pickled graph, serves it through the
        helper and exits: no tracker noise, nothing left under ``/dev/shm``,
        the parent's graph answering."""
        want = _answers(source_graph)
        census = ProcessCensus()
        path = tmp_path / "graph.pkl"
        path.write_bytes(pickle.dumps(source_graph))
        script = "\n".join(
            [
                "import pickle, sys",
                "from repro.core.dsql import DSQL",
                "from repro.graph.query_graph import QueryGraph",
                "from repro.parallel import worker_graph",
                "with open(sys.argv[1], 'rb') as fh:",
                "    graph = worker_graph(pickle.load(fh))",
                "assert graph.num_vertices > 0 and graph.version is not None",
                "result = DSQL(graph, k=3).query(QueryGraph(['a', 'b'], [(0, 1)]))",
                "print(result.coverage)",
            ]
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert int(proc.stdout) == DSQL(source_graph, k=K).query(_queries()[0]).coverage
        assert _answers(source_graph) == want
        assert census.settled(), census.report()
