"""Shared-memory publication of graph state for multiprocess use.

The process strategy of :class:`~repro.parallel.executor.BatchExecutor` and
the pre-forked service front (:mod:`repro.service.multiworker`) both need
many worker processes to search the *same* graph. Re-pickling the graph per
batch is what made the old process strategy 3.3x slower than serial; this
module replaces that with a publish/attach round-trip over
:mod:`multiprocessing.shared_memory`:

* :func:`publish_graph` flattens the live graph to CSR
  (:meth:`CSRBackend.to_arrays() <repro.graph.csr.CSRBackend.to_arrays>`:
  ``indptr`` / ``indices`` / ``label_ids``) and writes the arrays into named
  shared-memory segments — once, by the publisher — and serializes the
  per-graph :class:`~repro.indexes.graph_cache.GraphIndexCache` derivations
  (signature-mask table, warm adjacency bitsets, cache version) plus the
  label table into a meta segment. Publishing is a *read*: the graph, its
  version and its plan cache are left exactly as found, pending deltas
  included — the publication is stamped ``(epoch, delta_seq)`` wherever the
  graph happens to be. It returns a :class:`PublishedGraph` owning the
  segments and a picklable :class:`SharedGraphDescriptor` that travels to
  workers through pool initargs.
* :func:`attach_graph` opens those segments in a worker, copies the graph
  out (:meth:`CSRBackend.from_arrays() <repro.graph.csr.CSRBackend.
  from_arrays>`: the neighbor tuples and membership sets the engine reads,
  one O(|V| + |E|) pass per process), pre-seeds the index cache — no edge
  renormalization, no signature sweep, no candidate scan needed to start
  searching — and **closes its mappings before it returns**. The result is
  an ordinary :class:`~repro.graph.labeled_graph.LabeledGraph` that holds
  no shared memory, so there is nothing for the attaching side to close.

Lifecycle is explicit and the failure modes are typed:

``create`` (:func:`publish_graph`) → ``attach`` (:func:`attach_graph`, any
number of processes, each open-copy-close) → ``close`` + ``unlink`` (the
publisher drops its mapping and frees the segments).

Attaching segments that were never published — or published and already
unlinked — raises :class:`~repro.exceptions.SharedMemoryError`; attaching
with a descriptor whose epoch does not match the meta block (a descriptor
from a previous publication generation) raises
:class:`~repro.exceptions.StaleSegmentError`. An attach that cannot close
its mappings — some view of the segments outlived the copy — raises
:class:`~repro.exceptions.SharedMemoryError` instead of returning a graph
with a mapping silently pinned behind it.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import SharedMemoryError, StaleSegmentError
from repro.graph.csr import CSRBackend
from repro.graph.labeled_graph import LabeledGraph

SHARED_FORMAT_VERSION = 3
"""Bumped whenever the segment layout changes; attach refuses a mismatch.

Version 2 added ``delta_seq`` to the meta block and descriptor: a
publication is stamped with the full cache version ``(epoch, delta_seq)``,
and attached readers catch up to later deltas of the *same* epoch by
replaying the publisher's mutation-log tail (see
:meth:`~repro.indexes.graph_cache.GraphIndexCache.ops_since`). Only a
compaction — which starts a fresh epoch — makes a publication
unrecoverably stale. Version 3 dropped the ``degree_array`` segment (attach
derives degrees from the row lengths)."""

ARRAY_FIELDS: Tuple[str, ...] = ("indptr", "indices", "label_ids")
"""The arrays of :meth:`CSRBackend.to_arrays() <repro.graph.csr.CSRBackend.
to_arrays>`, published as raw shared-memory segments, in order."""

logger = logging.getLogger("repro.graph.shared")


_LOCAL_TOKENS: set = set()
"""Tokens published by this process (inherited by children forked later).

Python (through 3.12) registers *every* ``SharedMemory`` handle with a
resource tracker, attachments included. Processes sharing the publisher's
tracker (the publisher itself, and children forked after the publish) must
NOT undo that registration — the tracker keeps one entry per name, so an
attach-side unregister would cancel the create-side one and leak the
segment on crash. A process running its *own* tracker — an independently
launched attacher, or a worker whose start method did not hand it the
publisher's tracker — must undo the registration, or its tracker would
unlink the publisher's segments the moment the process exits. Membership
in this set is the "published here" test: publishers add their token here,
fork children inherit the set, other attachers start empty.
"""


def _unregister_attachment(shm: shared_memory.SharedMemory, token: str) -> None:
    """Undo the attach-side tracker registration in foreign-tracker processes.

    A failure here is not silent: it means this process's resource tracker
    still owns the attachment and will unlink the publisher's segments at
    exit (the regression
    :class:`tests.graph.test_shared.TestForeignTrackerSurvival` guards).
    """
    if token in _LOCAL_TOKENS:
        return
    if os.name != "posix":
        # SharedMemory registers with the resource tracker only on POSIX;
        # elsewhere there is nothing to undo.
        return
    # register() recorded the platform-internal spelling of the name, which
    # on POSIX carries a leading slash that the public ``name`` property
    # strips — rebuild it rather than reading the private ``_name``.
    registered = shm.name if shm.name.startswith("/") else "/" + shm.name
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(registered, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        logger.warning(
            "failed to unregister shared-memory attachment %s from the "
            "resource tracker; this process's tracker may unlink the "
            "segment when it exits",
            shm.name,
            exc_info=True,
        )


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """Picklable recipe for attaching one published graph.

    ``arrays`` maps each :data:`ARRAY_FIELDS` entry to its segment name,
    shape, and dtype string; ``epoch`` is the publication generation the
    meta block must still carry for an attach to succeed.
    """

    token: str
    epoch: int
    graph_name: str
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], str], ...]
    meta_segment: str
    meta_size: int
    delta_seq: int = 0


class PublishedGraph:
    """Owner of one graph's shared segments (the create side).

    Usable as a context manager; leaving the ``with`` block (or calling
    :meth:`unlink`) frees the segments. :meth:`close` alone only drops this
    process's mapping — other processes can still attach until
    :meth:`unlink`; graphs already attached hold no mapping and outlive both.
    """

    def __init__(
        self,
        descriptor: SharedGraphDescriptor,
        segments: List[shared_memory.SharedMemory],
    ) -> None:
        self.descriptor = descriptor
        self._segments = segments
        self._closed = False
        self._unlinked = False

    @property
    def nbytes(self) -> int:
        """Total bytes of shared memory held by the published segments."""
        return sum(s.size for s in self._segments)

    def close(self) -> None:
        """Drop this process's mapping (idempotent; attached graphs unaffected)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - publisher holds no views
                pass

    def unlink(self) -> None:
        """Free the segments (idempotent). New attaches fail from here on;
        graphs already attached are private copies and keep answering."""
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "PublishedGraph":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        self.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
            self.unlink()
        except Exception:
            pass


def _segment_name(token: str, field: str) -> str:
    return f"{token}-{field}"


def publish_graph(graph: LabeledGraph) -> PublishedGraph:
    """Publish ``graph`` (CSR arrays + warm index derivations) to shared memory.

    The graph's index cache is built first if it is still cold, so every
    attacher inherits a warm one. Apart from that the graph is only read —
    pending deltas are published as they stand, never compacted first.
    """
    backend = graph.backend
    cache = graph.index_cache()
    arrays = backend.to_arrays()

    token = f"repro-{os.getpid()}-{uuid.uuid4().hex[:12]}"
    segments: List[shared_memory.SharedMemory] = []
    array_specs: List[Tuple[str, str, Tuple[int, ...], str]] = []
    try:
        for field in ARRAY_FIELDS:
            array = arrays[field]
            name = _segment_name(token, field)
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, array.nbytes)
            )
            segments.append(segment)
            if array.size:
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[:] = array
                del view
            array_specs.append((field, name, tuple(array.shape), array.dtype.str))

        meta = {
            "format": SHARED_FORMAT_VERSION,
            "graph_name": graph.name,
            "label_table": list(backend.label_table),
            **cache.shared_state(),
        }
        blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        meta_name = _segment_name(token, "meta")
        meta_segment = shared_memory.SharedMemory(
            name=meta_name, create=True, size=len(blob)
        )
        segments.append(meta_segment)
        meta_segment.buf[: len(blob)] = blob
    except Exception as exc:
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - best-effort rollback
                pass
        if isinstance(exc, SharedMemoryError):
            raise
        raise SharedMemoryError(f"publishing graph {graph.name!r} failed: {exc}") from exc

    _LOCAL_TOKENS.add(token)
    descriptor = SharedGraphDescriptor(
        token=token,
        epoch=cache.epoch,
        graph_name=graph.name,
        arrays=tuple(array_specs),
        meta_segment=meta_name,
        meta_size=len(blob),
        delta_seq=cache.delta_seq,
    )
    return PublishedGraph(descriptor, segments)


def _copy_out(
    descriptor: SharedGraphDescriptor, segments: List[shared_memory.SharedMemory]
) -> LabeledGraph:
    """Open the descriptor's segments and build a private graph from them.

    Every segment opened is appended to ``segments`` — also when this
    raises — so :func:`attach_graph` can close them all. No view of a
    segment may survive this frame.
    """

    def open_segment(name: str) -> shared_memory.SharedMemory:
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            raise SharedMemoryError(
                f"shared segment {name!r} does not exist "
                "(never published, or already unlinked)"
            ) from None
        _unregister_attachment(segment, descriptor.token)
        segments.append(segment)
        return segment

    meta_segment = open_segment(descriptor.meta_segment)
    try:
        meta = pickle.loads(bytes(meta_segment.buf[: descriptor.meta_size]))
    except Exception as exc:
        raise SharedMemoryError(
            f"shared meta block {descriptor.meta_segment!r} is corrupt: {exc}"
        ) from exc
    if meta.get("format") != SHARED_FORMAT_VERSION:
        raise SharedMemoryError(
            f"shared segment format {meta.get('format')!r} does not match "
            f"this library's version {SHARED_FORMAT_VERSION}"
        )
    if meta.get("epoch") != descriptor.epoch:
        raise StaleSegmentError(
            f"descriptor epoch {descriptor.epoch} does not match published "
            f"epoch {meta.get('epoch')}: the graph was re-published; "
            "re-fetch the descriptor"
        )
    if meta.get("delta_seq", 0) != descriptor.delta_seq:
        raise StaleSegmentError(
            f"descriptor delta_seq {descriptor.delta_seq} does not match "
            f"published delta_seq {meta.get('delta_seq')}: the publication "
            "was refreshed mid-epoch; re-fetch the descriptor"
        )

    arrays: Dict[str, np.ndarray] = {}
    for field, name, shape, dtype in descriptor.arrays:
        segment = open_segment(name)
        # np.frombuffer keeps a buffer export on the segment's memoryview,
        # so SharedMemory.close() fails loudly (BufferError) while a view
        # is alive. np.ndarray(buffer=...) would NOT register the export —
        # close() would silently unmap under the array and later reads
        # would fault.
        array = np.frombuffer(segment.buf, dtype=np.dtype(dtype), count=math.prod(shape))
        array.flags.writeable = False
        arrays[field] = array.reshape(shape)

    backend = CSRBackend.from_arrays(label_table=meta["label_table"], **arrays)
    graph = LabeledGraph.from_backend(backend, name=meta["graph_name"])
    # Pre-seed the pinned index cache from the published derivations: the
    # signature sweep and the publisher's warm adjacency bitsets are
    # inherited, and the shared version keeps plan-cache keys and replay
    # positions consistent across the publishing and attaching processes.
    from repro.indexes.graph_cache import GraphIndexCache

    graph._cache = GraphIndexCache(
        graph,
        signature_masks=meta["signature_masks"],
        adjacency_masks=meta["adjacency_masks"],
        epoch=meta["epoch"],
        delta_seq=meta.get("delta_seq", 0),
    )
    return graph


def attach_graph(descriptor: SharedGraphDescriptor) -> LabeledGraph:
    """A private copy of a published graph: open the segments, copy out, close.

    The returned graph holds no mapping — the publisher may ``close()`` and
    ``unlink()`` the moment this returns — and is mutable like any other
    (workers replay the publisher's later deltas onto it).

    Raises :class:`SharedMemoryError` when a segment is missing (never
    published, or already unlinked) or a mapping cannot be closed because a
    view of it is still alive, and :class:`StaleSegmentError` when the
    descriptor's version does not match the published meta block.
    """
    segments: List[shared_memory.SharedMemory] = []
    pinned: List[str] = []
    try:
        graph = _copy_out(descriptor, segments)
    finally:
        for segment in segments:
            try:
                segment.close()
            except BufferError:
                pinned.append(segment.name)
    if pinned:
        raise SharedMemoryError(
            f"attach could not close segments {sorted(pinned)}: views over them "
            "are still alive, so the copied-out graph would pin shared memory"
        )
    return graph


__all__ = [
    "ARRAY_FIELDS",
    "SHARED_FORMAT_VERSION",
    "PublishedGraph",
    "SharedGraphDescriptor",
    "attach_graph",
    "publish_graph",
]
