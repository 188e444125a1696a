"""Tests for :mod:`repro.graph.shared` — the shared-memory publish/attach layer.

The contract under test: an attached graph is *equivalent* to the published
one (same topology, labels, index-cache state, bit-identical query answers),
it is a private copy holding no mapping (attach = open, copy out, close),
publishing is a read, and the lifecycle fails loudly — stale epochs and
unlinked segments raise typed errors instead of serving wrong answers.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.graph.shared as shared
from repro.core.dsql import DSQL
from repro.exceptions import SharedMemoryError, StaleSegmentError
from repro.graph.csr import CSRBackend
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.shared import attach_graph, publish_graph
from tests.conftest import resident_arrays

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


@pytest.fixture
def source_graph():
    return _graph()


@pytest.fixture
def published(source_graph):
    pub = publish_graph(source_graph)
    yield pub
    pub.close()
    pub.unlink()


@pytest.fixture
def opened(monkeypatch):
    """Every ``SharedMemory`` handle ``repro.graph.shared`` opens from here on."""
    handles = []

    class Recording(shared.shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            handles.append(self)

    monkeypatch.setattr(shared.shared_memory, "SharedMemory", Recording)
    return handles


class TestRoundTrip:
    def test_topology_and_labels_survive(self, source_graph, published):
        got = attach_graph(published.descriptor)
        assert got.name == source_graph.name
        assert got.num_vertices == source_graph.num_vertices
        assert got.num_edges == source_graph.num_edges
        assert list(got.labels) == list(source_graph.labels)
        assert list(got.edges()) == list(source_graph.edges())
        for v in source_graph.vertices():
            assert got.neighbors(v) == source_graph.neighbors(v)
            assert got.neighbor_set(v) == source_graph.neighbor_set(v)
            assert got.degree(v) == source_graph.degree(v)

    def test_query_results_bit_identical(self, source_graph, published):
        session = DSQL(attach_graph(published.descriptor), k=K)
        shared_results = [r.to_dict() for r in session.query_many(_queries())]
        serial = [r.to_dict() for r in DSQL(source_graph, k=K).query_many(_queries())]
        assert shared_results == serial

    def test_arrays_are_views_not_copies(self, published, opened):
        """Was: the attached arrays alias the segments. Now the opposite
        holds — the attached graph is plain-``int`` rows and sets, keeps no
        array and no mapping: every handle attach opened is closed again by
        the time it returns."""
        got = attach_graph(published.descriptor)
        assert len(opened) == 1 + len(shared.ARRAY_FIELDS)  # meta + arrays
        assert all(handle.buf is None for handle in opened)
        backend = got.backend
        assert not resident_arrays(backend)
        for v in got.vertices():
            assert all(type(w) is int for w in got.neighbors(v))
            assert all(type(w) is int for w in got.neighbor_set(v))
        assert all(type(i) is int for i in backend.label_id_sequence())
        assert got.index_cache().degree_array.flags.owndata

    def test_index_cache_preseeded_with_same_epoch(self, source_graph, published):
        cache = source_graph.index_cache()
        got = attach_graph(published.descriptor).index_cache()
        assert got.epoch == cache.epoch == published.descriptor.epoch
        assert got.label_index == cache.label_index
        assert list(got.signature_masks) == list(cache.signature_masks)

    def test_nbytes_accounts_for_arrays(self, published):
        arrays = _graph().backend.to_arrays()
        assert sorted(arrays) == sorted(shared.ARRAY_FIELDS)
        assert published.nbytes >= sum(array.nbytes for array in arrays.values())

    def test_publishing_is_a_read(self, source_graph):
        """A graph with pending deltas publishes where it stands: version,
        plan cache and delta counter untouched, descriptor at delta_seq > 0,
        and the attached copy is the live topology at that version."""
        session = DSQL(source_graph, k=K)
        session.query_many(_queries())
        source_graph.mutate(
            [("add_vertex", "a"), ("add_edge", 10, 4), ("remove_edge", 0, 9)],
            compaction_threshold=None,
        )
        session.query_many(_queries())
        plans = source_graph.index_cache().plan_cache
        before = (source_graph.version, plans.info(), source_graph.backend.delta_size)
        assert before[0][1] == 3 and before[1]["size"] > 0 and before[2] == 2
        with publish_graph(source_graph) as pub:
            assert (source_graph.version, plans.info(), source_graph.backend.delta_size) == before
            assert source_graph.index_cache().plan_cache is plans
            assert (pub.descriptor.epoch, pub.descriptor.delta_seq) == before[0]
            got = attach_graph(pub.descriptor)
        assert got.version == before[0]
        assert list(got.edges()) == list(source_graph.edges())
        assert list(got.labels) == list(source_graph.labels)
        rebuilt = LabeledGraph(list(source_graph.labels), list(source_graph.edges()))
        want = [r.to_dict() for r in DSQL(rebuilt, k=K).query_many(_queries())]
        assert [r.to_dict() for r in DSQL(got, k=K).query_many(_queries())] == want


class TestLifecycle:
    def test_attach_after_unlink_raises(self):
        pub = publish_graph(_graph())
        descriptor = pub.descriptor
        pub.close()
        pub.unlink()
        with pytest.raises(SharedMemoryError):
            attach_graph(descriptor)

    def test_stale_epoch_raises(self, published, opened):
        forged = dataclasses.replace(
            published.descriptor, epoch=published.descriptor.epoch + 1
        )
        with pytest.raises(StaleSegmentError):
            attach_graph(forged)
        assert opened and all(handle.buf is None for handle in opened)  # closed on failure too

    def test_stale_is_a_shared_memory_error(self):
        assert issubclass(StaleSegmentError, SharedMemoryError)

    def test_old_format_is_refused(self, published, monkeypatch):
        monkeypatch.setattr(shared, "SHARED_FORMAT_VERSION", 2)
        with pytest.raises(SharedMemoryError, match="format 3 does not match"):
            attach_graph(published.descriptor)

    def test_publish_close_unlink_idempotent(self):
        pub = publish_graph(_graph())
        pub.close()
        pub.close()
        pub.unlink()
        pub.unlink()

    def test_close_with_live_views_raises_typed_error(self, published, monkeypatch):
        """Was: ``AttachedGraph.close()`` refuses while views are alive.
        There is no attachment to close; the same fault — a view of a
        segment outliving the copy — now fails the attach itself instead of
        returning a graph with a mapping pinned behind it."""
        kept = []
        real = CSRBackend.from_arrays.__func__

        def adopting(cls, indptr, indices, label_ids, label_table):
            kept.append(indices)  # what the old from_arrays did
            return real(cls, indptr, indices, label_ids, label_table)

        monkeypatch.setattr(CSRBackend, "from_arrays", classmethod(adopting))
        with pytest.raises(SharedMemoryError, match="views over them are still alive") as failure:
            attach_graph(published.descriptor)
        # The offender's view is intact (the mapping was not pulled from
        # under it); the handles — alive in the failure's traceback — close
        # once the view is dropped, and attach works again when nothing adopts.
        assert kept[0].tolist() == _graph().backend.to_arrays()["indices"].tolist()
        kept.clear()
        del failure
        monkeypatch.undo()
        assert attach_graph(published.descriptor).num_edges == _graph().num_edges

    def test_attachment_close_idempotent(self, source_graph, published):
        """Was: closing an attachment twice is harmless. With nothing to
        close, what remains to pin is that two attaches of one descriptor
        are independent copies."""
        first = attach_graph(published.descriptor)
        second = attach_graph(published.descriptor)
        assert first is not second and first.backend is not second.backend
        first.add_edge(0, 5)
        first.add_vertex("z")
        first.compact()
        assert not second.has_edge(0, 5) and not source_graph.has_edge(0, 5)
        assert second.num_vertices == source_graph.num_vertices
        assert second.version == source_graph.version != first.version
        assert list(attach_graph(published.descriptor).edges()) == list(source_graph.edges())

    def test_unlink_while_attached_keeps_mapping_alive(self):
        """Was: POSIX keeps an attached mapping alive past the unlink. The
        attached graph needs no such grace: it holds no mapping, so the
        publisher may close and unlink the moment ``attach_graph`` returns
        — which is what lets the worker pool unlink eagerly at close()."""
        graph = _graph()
        pub = publish_graph(graph)
        attached = attach_graph(pub.descriptor)
        pub.close()
        pub.unlink()
        with pytest.raises(SharedMemoryError):
            attach_graph(pub.descriptor)
        result = DSQL(attached, k=K).query(_queries()[0])
        reference = DSQL(graph, k=K).query(_queries()[0])
        assert result.to_dict() == reference.to_dict()
        assert attached.add_edge(0, 5) and attached.has_edge(5, 0)  # and is writable

    def test_republish_same_graph_keeps_epoch_changes_token(self, source_graph, published):
        # Segment names must never collide across publications, but the
        # epoch is the index cache's identity — republishing the same live
        # graph keeps it, so existing descriptors stay attachable-by-epoch.
        second = publish_graph(source_graph)
        try:
            assert second.descriptor.token != published.descriptor.token
            assert second.descriptor.epoch == published.descriptor.epoch
        finally:
            second.close()
            second.unlink()


def _attach_probe(descriptor_path: str) -> None:
    """Spawn-context child body: attach, sanity-check, exit 0."""
    import pickle as _pickle

    from repro.graph.shared import attach_graph as _attach

    with open(descriptor_path, "rb") as fh:
        descriptor = _pickle.load(fh)
    assert _attach(descriptor).num_vertices > 0


class TestForeignTrackerSurvival:
    """A worker's exit must never unlink the publisher's segments.

    Python's shared-memory resource tracker registers *attachments* too;
    in a process with its own tracker, that registration would unlink the
    segments at process exit unless the attach undoes it
    (``_unregister_attachment``). These tests fail loudly if a Python
    tracker-behavior change ever restores the unlink-on-exit behavior.
    """

    def _assert_still_attachable(self, source_graph, published):
        assert attach_graph(published.descriptor).num_edges == source_graph.num_edges

    def test_segments_survive_spawn_worker_exit(
        self, source_graph, published, tmp_path
    ):
        import multiprocessing

        path = tmp_path / "descriptor.pkl"
        path.write_bytes(pickle.dumps(published.descriptor))
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_attach_probe, args=(str(path),))
        proc.start()
        proc.join(120)
        assert proc.exitcode == 0
        self._assert_still_attachable(source_graph, published)

    def test_segments_survive_independent_process_exit(
        self, source_graph, published, tmp_path
    ):
        # An independently launched interpreter runs its OWN resource
        # tracker — the exact process shape whose exit would unlink the
        # publisher's segments without the attach-side unregister. The
        # child stops its tracker synchronously so any cleanup it would
        # do has happened before the parent re-attaches.
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "descriptor.pkl"
        path.write_bytes(pickle.dumps(published.descriptor))
        script = "\n".join(
            [
                "import pickle, sys",
                "from multiprocessing import resource_tracker",
                "from repro.graph.shared import attach_graph",
                "with open(sys.argv[1], 'rb') as fh:",
                "    descriptor = pickle.load(fh)",
                "assert attach_graph(descriptor).num_vertices > 0",
                "tracker = getattr(resource_tracker, '_resource_tracker', None)",
                "if tracker is not None and getattr(tracker, '_fd', None) is not None:",
                "    tracker._stop()",
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
        self._assert_still_attachable(source_graph, published)
