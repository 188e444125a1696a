"""Per-graph index cache shared across queries and sessions.

The DSQL filters of Section 3 (label, degree, neighborhood signature) all
depend only on the *data graph*, yet the seed implementation recomputed them
lazily per :class:`~repro.graph.labeled_graph.LabeledGraph` accessor and
rebuilt candidate pools from zero on every ``DSQL.query`` call.
:class:`GraphIndexCache` hoists every per-graph artifact into one object
computed once and pinned by the graph (``graph.index_cache()``), so a DSQL
session answering many queries against the same graph shares:

* the **label inverted index** (label -> sorted vertex tuple);
* the **neighborhood-signature table** — per-vertex label-id *bitmasks*
  (Python ints, so an arbitrary number of labels works); the frozenset
  view of the public API is derived from a mask on call, interned per mask;
* the **degree and label-id tables**, copied from the graph and
  repaired by deltas (plain lists: the ``weighted-vertex`` objective reads
  ``degrees`` directly);
* a bounded LRU **candidate-pool memo** keyed by
  ``(label_id, min_degree, signature_mask)`` — distinct query nodes with the
  same filter profile (and repeated queries) share one pool computation;
* beside a memoized pool, once the cost estimator has asked, the pool's
  **degree mass** (:meth:`GraphIndexCache.pool_degree_mass`): repaired and
  dropped with the pool, so pricing a plan walks no pool.

:class:`~repro.indexes.candidates.CandidateIndex` becomes a cheap per-query
restriction over these pools instead of a per-query full scan.

Live mutation support is *delta-based* rather than epoch-nuke:
:meth:`GraphIndexCache.apply_delta` repairs only the state derived from the
touched edges' 1-hop neighborhoods (the endpoints' degrees, signature masks
and adjacency bitsets) and evicts only the compiled plans whose pools
intersect the dirty label set — everything else survives at the same logical
:attr:`epoch` with a bumped :attr:`delta_seq`. The candidate-pool memo is
*repaired*, not evicted: a pool is exactly the vertices of its label passing
its degree and signature tests, so each dirty vertex is re-tested against the
memo entries of its own label and an entry's tuple is rebuilt only when the
vertex joined or left it; the same loop moves an entry's degree mass by
what the vertex's degree did. A write therefore touches O(dirty vertices x
entries of their labels) memo words and leaves no scan for the next read.
The pair ``(epoch, delta_seq)`` is the cache :attr:`version` that keys
session memos and is a pool worker's place in the write stream: the epoch
names this construction and ``delta_seq`` only counts up, so it changes
exactly when the graph does. A checkpoint (:meth:`truncate_log`) only empties
the mutation log; :meth:`ops_since` refuses a reader it passed, which is how
a worker pool goes stale. See ``docs/mutation.md`` for the full contract.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from collections import Counter, OrderedDict
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.exceptions import StaleSegmentError

Label = Hashable

DEFAULT_CANDIDATE_MEMO_SIZE = 2048

DEFAULT_ADJACENCY_MEMO_SIZE = 4096
"""Cap on memoized per-vertex neighbor bitsets (LRU eviction).

A mask costs O(num_vertices / 8) bytes, so materializing one per vertex
would be quadratic in graph size; in practice only the vertices matched to
query nodes near the search root ever need a mask, and they repeat heavily
across frames and queries.
"""

_EPOCHS = itertools.count()
"""Process-wide monotonic epoch source for :attr:`GraphIndexCache.epoch`."""


class GraphIndexCache:
    """All per-graph filter state, computed once and shared.

    Derived per-pool state lives with the pool and is repaired with it: a
    memoized pool's degree mass (:meth:`pool_degree_mass`) sits beside its
    entry under the same lock — nothing outside this class sums a pool.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.labeled_graph.LabeledGraph` to index.
    candidate_memo_size:
        Cap on the memoized candidate pools (LRU eviction). ``None`` means
        unbounded; ``0`` disables memoization.
    """

    __slots__ = (
        "graph",
        "label_table",
        "label_to_id",
        "label_ids",
        "degrees",
        "label_index",
        "signature_masks",
        "candidate_memo_hits",
        "candidate_memo_misses",
        "epoch",
        "delta_seq",
        "plan_cache",
        "_mutation_log",
        "_mask_signatures",
        "_pool_memo",
        "_pool_memo_size",
        "_pool_keys",
        "pool_entries_repaired",
        "pool_entries_rebuilt",
        "pool_entries_dropped",
        "_pool_lock",
        "_adj_masks",
        "_adj_memo_size",
        "_adj_lock",
        "_metrics",
        "_cost_estimator",
        "_compressed",
    )

    def __init__(
        self,
        graph,
        candidate_memo_size: Optional[int] = DEFAULT_CANDIDATE_MEMO_SIZE,
        *,
        signature_masks: Optional[List[int]] = None,
        epoch: Optional[int] = None,
        delta_seq: int = 0,
    ):
        """``signature_masks`` / ``epoch`` / ``delta_seq`` seed a cache built
        in a worker process (:func:`repro.parallel.pool.worker_graph`) from
        the one its parent held: the signature table is copied instead of
        recomputed (skipping the O(|E|) neighbor sweep) and the parent's
        version is kept, so memo keys and replay positions agree across the
        two processes. Every lock and memo is this cache's own."""
        self.graph = graph
        self.label_table: List[Label] = graph.label_table
        self.label_to_id: Dict[Label, int] = graph.label_to_id
        label_ids = graph.label_id_sequence()
        self.label_ids: List[int] = label_ids
        self.degrees: List[int] = graph.degree_sequence()

        # Label inverted index: label -> sorted tuple of vertices.
        buckets: List[List[int]] = [[] for _ in self.label_table]
        for v, lid in enumerate(label_ids):
            buckets[lid].append(v)
        self.label_index: Dict[Label, Tuple[int, ...]] = {
            self.label_table[lid]: tuple(vs) for lid, vs in enumerate(buckets)
        }

        # Signature table: per-vertex bitmask over label ids.
        bit = [1 << lid for lid in range(len(self.label_table))]
        if signature_masks is not None:
            masks = list(signature_masks)
        else:
            masks = []
            neighbors = graph.neighbors
            for v in range(graph.num_vertices):
                m = 0
                for w in neighbors(v):
                    m |= bit[label_ids[w]]
                masks.append(m)
        self.signature_masks: List[int] = masks
        # mask -> its frozenset view, filled by signature() on demand: no
        # engine, plan or estimator path reads the frozenset form.
        self._mask_signatures: Dict[int, FrozenSet[Label]] = {}

        self._pool_memo: "OrderedDict[Tuple[int, int, int], Tuple[int, ...]]" = OrderedDict()
        self._pool_memo_size = candidate_memo_size
        # label id -> the memo keys of that label, so a delta walks only the
        # entries its dirty vertices can join or leave; each key maps to its
        # pool's degree mass (None until pool_degree_mass is asked for it).
        self._pool_keys: Dict[int, Dict[Tuple[int, int, int], Optional[int]]] = {}
        self.pool_entries_repaired = 0
        self.pool_entries_rebuilt = 0
        self.pool_entries_dropped = 0
        # Everything above is immutable after construction and safely shared
        # across threads; the pool memo is the one mutable structure, so its
        # get/move_to_end/evict sequences are serialized for the thread
        # strategy of the parallel BatchExecutor. Uncontended acquisition is
        # tens of nanoseconds against a pool scan's micro/milliseconds.
        self._pool_lock = threading.Lock()
        self.candidate_memo_hits = 0
        self.candidate_memo_misses = 0
        self._metrics = None

        # Lazy per-vertex neighbor bitsets (big ints) for the join kernels.
        self._adj_masks: "OrderedDict[int, int]" = OrderedDict()
        self._adj_memo_size = DEFAULT_ADJACENCY_MEMO_SIZE
        self._adj_lock = threading.Lock()

        # Compiled query plans are keyed by (epoch, canonical query key,
        # use_compression); the epoch names this construction — stamped here
        # and nowhere else — so keys from two caches of the "same" graph stay
        # distinguishable even if a plan cache instance were ever shared.
        self.epoch = next(_EPOCHS) if epoch is None else epoch
        # Bumped once per applied mutation, never reset; with the epoch, the version.
        self.delta_seq = delta_seq
        self._mutation_log: List[Tuple[int, Tuple]] = []
        # Late import: repro.indexes.plans reaches back through the
        # isomorphism package (for the search-order construction), which
        # imports this module — a top-level import here would cycle.
        from repro.indexes.plans import PlanCache

        self.plan_cache = PlanCache()
        # The per-graph cost estimator is built lazily (see
        # :meth:`cost_estimator`) so graphs that never estimate pay nothing.
        self._cost_estimator = None
        # Twin-class partition for compression-enabled plans, built lazily
        # (see :meth:`compressed`) and repaired in-place by apply_delta.
        self._compressed = None

    # ------------------------------------------------------------------
    # Pickling (what a spawned pool worker's graph arrives with): locks
    # cannot cross process boundaries; a fresh lock is equivalent because a
    # just-unpickled cache has no concurrent users yet. An attached metrics
    # registry (which also holds locks) is session state, not graph state,
    # so it is dropped the same way.
    def __getstate__(self) -> dict:
        # Every memo is dropped — candidate pools, mask signatures, compiled
        # plans, adjacency bitsets: each is a pure cache that refills
        # lazily, shipping megabytes of masks to a worker is worse than
        # recomputing the few it touches, and they are the dicts a *read*
        # inserts into, so a query running beside the pickling (a process
        # batch starts its workers under the service's read lock) cannot
        # change anything the pickler iterates.
        # The cost estimator is dropped too (it holds a lock): calibration
        # is session state that each process re-learns from its own traffic.
        # The compressed twin partition is likewise dropped — it is a pure
        # function of the graph and rebuilds lazily on first compressed plan.
        skip = (
            "_pool_lock",
            "_pool_memo",
            "_pool_keys",
            "_mask_signatures",
            "plan_cache",
            "_adj_lock",
            "_adj_masks",
            "_metrics",
            "_cost_estimator",
            "_compressed",
        )
        return {s: getattr(self, s) for s in self.__slots__ if s not in skip}

    def __setstate__(self, state: dict) -> None:
        from repro.indexes.plans import PlanCache

        for name, value in state.items():
            setattr(self, name, value)
        self._pool_lock = threading.Lock()
        self._pool_memo = OrderedDict()
        self._pool_keys = {}
        self._mask_signatures = {}
        self.plan_cache = PlanCache()
        self._adj_lock = threading.Lock()
        self._adj_masks = OrderedDict()
        self._metrics = None
        self._cost_estimator = None
        self._compressed = None

    # ------------------------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Mirror pool-memo hits/misses into ``registry`` from now on.

        Called by instrumented :class:`~repro.core.dsql.DSQL` sessions so
        the shared per-graph cache reports into the session's
        :class:`~repro.observability.MetricsRegistry` (``cache.pool.hit`` /
        ``cache.pool.miss``). Passing ``None`` detaches. The plain integer
        counters (:attr:`candidate_memo_hits`/``misses``) keep counting
        either way. The hosted :attr:`plan_cache` is attached alongside
        (``plan.cache.hits`` / ``plan.cache.misses``).
        """
        self._metrics = registry
        self.plan_cache.attach_metrics(registry)
        if self._cost_estimator is not None:
            self._cost_estimator.attach_metrics(registry)

    def _record_lazy_expansion(self) -> None:
        """Mirror one lazy class-frame expansion into the attached registry."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("compression.lazy_expansions").inc()

    # ------------------------------------------------------------------
    def cost_estimator(self):
        """The graph's shared :class:`~repro.cost.CostEstimator`.

        Built on first use so that sessions which never estimate pay
        nothing; shared by every session/executor/service handler on this
        cache so they also share one calibration state (the point of
        per-graph calibration). Guarded by ``_pool_lock`` — creation is
        rare and the lock is never held while estimating.
        """
        estimator = self._cost_estimator
        if estimator is None:
            # Late import mirrors the PlanCache one above: repro.cost is a
            # leaf package, but keeping it off the module import path means
            # plain index users never load the estimator.
            from repro.cost.estimator import CostEstimator

            with self._pool_lock:
                estimator = self._cost_estimator
                if estimator is None:
                    estimator = CostEstimator(self)
                    if self._metrics is not None:
                        estimator.attach_metrics(self._metrics)
                    self._cost_estimator = estimator
        return estimator

    # ------------------------------------------------------------------
    def compressed(self):
        """The graph's twin-class partition (:class:`~repro.isomorphism.
        compression.CompressedGraph`), built on first use and pinned to this
        cache version.

        Compression-enabled plans and engines share one partition per graph:
        :meth:`apply_delta` repairs it in place (splitting only the dirtied
        endpoints' classes), so the partition stays valid across the cache's
        whole life.
        Guarded by ``_pool_lock``; creation is rare and the lock is never
        held while searching.
        """
        compressed = self._compressed
        if compressed is None:
            # Late import mirrors PlanCache/CostEstimator above: the
            # compression module imports the isomorphism package, which
            # reaches back here.
            from repro.isomorphism.compression import CompressedGraph

            with self._pool_lock:
                compressed = self._compressed
                if compressed is None:
                    compressed = CompressedGraph(self.graph)
                    if self._metrics is not None:
                        self._metrics.counter("compression.classes_built").inc(
                            compressed.num_classes
                        )
                    # Resolves self._metrics per call so the partition
                    # follows attach_metrics/detach like every other
                    # cache-hosted counter.
                    compressed.on_lazy_expansion = self._record_lazy_expansion
                    self._compressed = compressed
        return compressed

    # ------------------------------------------------------------------
    @classmethod
    def for_graph(cls, graph) -> "GraphIndexCache":
        """The graph's pinned cache (building it on first use)."""
        return graph.index_cache()

    def label_id(self, label: Label) -> Optional[int]:
        """Interned id for ``label``, or ``None`` if absent from the graph."""
        return self.label_to_id.get(label)

    def signature(self, v: int) -> FrozenSet[Label]:
        """Neighborhood-signature frozenset of data vertex ``v``, derived
        from its mask on call and interned (equal masks share one object)."""
        m = self.signature_masks[v]
        s = self._mask_signatures.get(m)
        if s is None:
            table = self.label_table
            s = self._mask_signatures.setdefault(
                m, frozenset(table[lid] for lid in range(len(table)) if m >> lid & 1)
            )
        return s

    def signature_mask(self, v: int) -> int:
        """Label-id bitmask form of ``v``'s neighborhood signature."""
        return self.signature_masks[v]

    def mask_for(self, labels: Iterable[Label]) -> Optional[int]:
        """Bitmask over this graph's label ids, or ``None`` if any label is
        absent from the graph (no data vertex can then satisfy a superset
        requirement)."""
        mask = 0
        to_id = self.label_to_id
        for lab in labels:
            lid = to_id.get(lab)
            if lid is None:
                return None
            mask |= 1 << lid
        return mask

    def vertices_with_label(self, label: Label) -> Tuple[int, ...]:
        """Sorted vertices carrying ``label`` (empty tuple if unknown)."""
        return self.label_index.get(label, ())

    # ------------------------------------------------------------------
    def candidate_pool(
        self, label: Label, min_degree: int = 0, signature_mask: int = 0
    ) -> Tuple[int, ...]:
        """Sorted data vertices passing the per-graph filters.

        A vertex qualifies when it carries ``label``, has degree at least
        ``min_degree``, and its neighborhood-signature mask contains
        ``signature_mask``. Results are memoized per filter profile with LRU
        eviction, so query nodes sharing a profile — across queries in a
        session — share the scan.
        """
        lid = self.label_to_id.get(label)
        if lid is None:
            return ()
        key = (lid, min_degree, signature_mask)
        memo = self._pool_memo
        cap = self._pool_memo_size
        metrics = self._metrics
        with self._pool_lock:
            if cap != 0:
                pool = memo.get(key)
                if pool is not None:
                    self.candidate_memo_hits += 1
                    if metrics is not None:
                        metrics.counter("cache.pool.hit").inc()
                    memo.move_to_end(key)
                    return pool
            self.candidate_memo_misses += 1
            if metrics is not None:
                metrics.counter("cache.pool.miss").inc()
            pool = self._scan(lid, min_degree, signature_mask)
            if cap != 0:
                memo[key] = pool
                self._pool_keys.setdefault(lid, {})[key] = None
                if cap is not None and len(memo) > cap:
                    oldest, _ = memo.popitem(last=False)
                    self._pool_keys[oldest[0]].pop(oldest, None)
            return pool

    def pool_degree_mass(
        self, label: Label, min_degree: int, signature_mask: int, pool: Tuple[int, ...]
    ) -> int:
        """``sum(degrees[v] for v in pool)`` for a pool :meth:`candidate_pool`
        returned under this profile (the cost model's mean pool degree).

        While ``pool`` is the memo's own tuple the sum is kept beside it (in
        the label's row of ``_pool_keys``): computed on first ask, moved by
        :meth:`_repair_pools` with every write, dropped with its entry. Not
        a pool-memo lookup (no hit, miss or LRU touch). Any other ``pool``
        (entry evicted or rebuilt since, memo off) is summed here, once, and
        nothing is kept.
        """
        lid = self.label_to_id.get(label)
        key = (lid, min_degree, signature_mask)
        with self._pool_lock:
            kept = self._pool_memo.get(key) is pool
            mass = self._pool_keys[lid][key] if kept else None
            if mass is None:
                mass = sum(map(self.degrees.__getitem__, pool))
                if kept:
                    self._pool_keys[lid][key] = mass
        return mass

    def _scan(self, lid: int, min_degree: int, signature_mask: int) -> Tuple[int, ...]:
        base = self.label_index[self.label_table[lid]]
        degrees = self.degrees
        masks = self.signature_masks
        if signature_mask:
            return tuple(
                v
                for v in base
                if degrees[v] >= min_degree and masks[v] & signature_mask == signature_mask
            )
        if min_degree:
            return tuple(v for v in base if degrees[v] >= min_degree)
        return base

    # ------------------------------------------------------------------
    # Adjacency views for the join kernels
    # ------------------------------------------------------------------
    def adjacency_slice(self, v: int) -> Tuple[int, ...]:
        """The sorted adjacency row of ``v`` (ascending vertex ids).

        This is the storage's own sorted tuple, surfaced here so kernel call
        sites depend on one accessor with a documented ordering guarantee.
        """
        return self.graph.neighbors(v)

    def adjacency_mask(self, v: int) -> int:
        """The neighbor bitset of ``v``: bit ``w`` set iff ``(v, w)`` is an edge.

        Built lazily per vertex and memoized behind a bounded LRU
        (:data:`DEFAULT_ADJACENCY_MEMO_SIZE`): a mask is O(|V|/8) bytes, so
        the full table would be quadratic, while the search only ever masks
        the vertices currently matched near the root of a frame.
        """
        memo = self._adj_masks
        with self._adj_lock:
            mask = memo.get(v)
            if mask is not None:
                memo.move_to_end(v)
                return mask
        mask = 0
        for w in self.graph.neighbors(v):
            mask |= 1 << w
        with self._adj_lock:
            memo[v] = mask
            if len(memo) > self._adj_memo_size:
                memo.popitem(last=False)
        return mask

    # ------------------------------------------------------------------
    # Live mutation: delta-based repair
    # ------------------------------------------------------------------
    @property
    def version(self) -> Tuple[int, int]:
        """The cache version ``(epoch, delta_seq)``.

        The epoch is this cache's construction; ``delta_seq`` advances by
        one per applied mutation and by nothing else — a checkpoint
        (:meth:`truncate_log`) leaves the pair as it is. Session memos, plan
        keys, and worker-pool sync headers are stamped with it, so
        post-mutation queries never replay pre-mutation answers.
        """
        return (self.epoch, self.delta_seq)

    def apply_delta(self, ops: Iterable[Tuple]) -> Tuple[int, int]:
        """Repair the cache after the graph applied ``ops``; returns the
        new :attr:`version`.

        ``ops`` are normalized applied mutations, in application order:
        ``("add_vertex", v, label)``, ``("add_edge", u, v)``, or
        ``("remove_edge", u, v)``. Repair is strictly local — an edge op
        dirties only its two endpoints (adding or removing ``(u, v)``
        changes the neighbor multisets of ``u`` and ``v`` and nobody
        else's, so only ``NS(u)``/``NS(v)``, their degrees, their adjacency
        bitsets, and the candidate pools of their labels can change) and a
        vertex op dirties only the new vertex. Candidate-pool memo entries
        are repaired in place (:meth:`_repair_pools`): entries of clean
        labels keep their tuple objects, entries of a dirty label change
        only where a dirty vertex joined or left them. Compiled plans are
        evicted only when their label ids intersect the dirty set; every
        other plan survives at the same epoch.
        """
        # Materialized once: the op stream is also replayed into the twin
        # partition's split repair below, and callers may pass a generator.
        ops = [tuple(op) for op in ops]
        dirty_vertices: set = set()
        new_labels: set = set()
        first_new = len(self.label_ids)
        for op in ops:
            kind = op[0]
            if kind == "add_vertex":
                v, label = op[1], op[2]
                lid = self.label_to_id[label]
                if v != len(self.label_ids):
                    raise ValueError(
                        f"out-of-order vertex delta: got id {v}, expected {len(self.label_ids)}"
                    )
                self.label_ids.append(lid)
                self.degrees.append(0)
                self.signature_masks.append(0)
                bucket = self.label_index.get(label)
                if bucket is None:
                    new_labels.add(label)
                    self.label_index[label] = (v,)
                else:
                    # v is the largest id, so appending keeps the bucket sorted.
                    self.label_index[label] = bucket + (v,)
                dirty_vertices.add(v)
            elif kind in ("add_edge", "remove_edge"):
                dirty_vertices.add(op[1])
                dirty_vertices.add(op[2])
            else:
                raise ValueError(f"unknown mutation op {kind!r}")
            self.delta_seq += 1
            self._mutation_log.append((self.delta_seq, op))

        # Local bindings keep the per-dirty-vertex loop tight: this path is
        # the whole point of delta repair. It reads one neighbour row per
        # dirty vertex (tests/indexes/test_delta_repair.py counts them).
        label_ids = self.label_ids
        neighbors = self.graph.neighbors
        degrees = self.degrees
        signature_masks = self.signature_masks
        dirty_per_label = Counter(map(label_ids.__getitem__, dirty_vertices))
        dirty_lids = set(dirty_per_label)
        repairable = self._repairable_labels(dirty_per_label)
        # label id -> [(v, degree before, mask before)] for the vertices
        # whose pool membership may have changed. A vertex added by this
        # batch was in no pool, which a degree of -1 says to every
        # ``degree >= min_degree`` test.
        moved: Dict[int, List[Tuple[int, int, int]]] = {}
        for v in dirty_vertices:
            row = neighbors(v)
            m = 0
            for w in row:
                m |= 1 << label_ids[w]
            lid = label_ids[v]
            if lid in repairable:
                before = (degrees[v], signature_masks[v]) if v < first_new else (-1, 0)
                if before != (len(row), m):
                    moved.setdefault(lid, []).append((v, *before))
            degrees[v] = len(row)
            signature_masks[v] = m

        if moved:
            self._repair_pools(moved)
        if self._adj_masks:
            with self._adj_lock:
                for v in dirty_vertices:
                    self._adj_masks.pop(v, None)
        self.plan_cache.evict_stale(
            dirty_lids, new_labels, edges_changed=any(op[0] != "add_vertex" for op in ops)
        )
        if self._compressed is not None:
            # Split repair: the dirtied endpoints leave their twin classes
            # as fresh singletons; everything else (and all class ids)
            # survives. See CompressedGraph.apply_delta for the argument.
            splits = self._compressed.apply_delta(ops)
            if splits and self._metrics is not None:
                self._metrics.counter("compression.split_repairs").inc(splits)
        return self.version

    def _repairable_labels(self, dirty_per_label: Dict[int, int]) -> Set[int]:
        """The dirty labels whose memo entries :meth:`_repair_pools` will
        re-test; a bulk batch's labels have their entries dropped instead.

        An eviction leaves one bucket scan to every entry that is asked for
        again, and the repair is held to the cheapest case of that: when
        re-testing a label's entries would take more membership tests (dirty
        vertices x entries) than one scan of its bucket, the entries are
        dropped and rescanned on demand. Decided before the vertices are
        repaired, so a bulk batch (or an empty memo) is not charged for
        remembering what each vertex looked like before.
        """
        repairable: Set[int] = set()
        dropped = 0
        with self._pool_lock:
            memo = self._pool_memo
            for lid, dirty in dirty_per_label.items():
                keys = self._pool_keys.get(lid)
                if not keys:
                    continue
                if dirty * len(keys) <= len(self.label_index[self.label_table[lid]]):
                    repairable.add(lid)
                    continue
                for key in keys:
                    del memo[key]
                dropped += len(keys)
                del self._pool_keys[lid]
        if dropped:
            self.pool_entries_dropped += dropped
            if self._metrics is not None:
                self._metrics.counter("cache.pool.dropped").inc(dropped)
        return repairable

    def _repair_pools(self, moved: Dict[int, List[Tuple[int, int, int]]]) -> None:
        """Re-test the moved vertices against the memo entries of their labels.

        ``moved[lid]`` lists ``(v, degree before, mask before)``; degrees and
        signature masks already hold the repaired values. A memo entry is by
        invariant exactly the vertices of its label that pass its two tests,
        so membership before the batch is decided from the old pair and
        membership after from the new one, and an entry's tuple is rebuilt
        — copied out, each flipped vertex bisected in or out, copied back,
        still ascending — only when some vertex flipped. That is at most one
        test per moved vertex and one O(pool) rebuild per entry. A kept
        degree mass (:meth:`pool_degree_mass`) moves in the same pass.
        """
        degrees = self.degrees
        masks = self.signature_masks
        repaired = rebuilt = 0
        with self._pool_lock:
            memo = self._pool_memo
            for lid, vertices in moved.items():
                keys = self._pool_keys[lid]
                repaired += len(keys)
                flips: Dict[Tuple[int, int, int], List[Tuple[int, bool]]] = {}
                for v, old_degree, old_mask in vertices:
                    degree, mask = degrees[v], masks[v]
                    for key, mass in keys.items():
                        _, min_degree, sig = key
                        if degree >= min_degree and mask & sig == sig:
                            if old_degree >= min_degree and old_mask & sig == sig:
                                # Still a member: no flip, but its degree moved.
                                if mass is not None:
                                    keys[key] = mass + degree - old_degree
                            else:
                                flips.setdefault(key, []).append((v, True))
                                if mass is not None:
                                    keys[key] = mass + degree
                        elif old_degree >= min_degree and old_mask & sig == sig:
                            flips.setdefault(key, []).append((v, False))
                            if mass is not None:
                                keys[key] = mass - old_degree
                rebuilt += len(flips)
                for key, changes in flips.items():
                    if key[1] == 0 and key[2] == 0:
                        # The unfiltered pool is the label bucket itself
                        # (see _scan); stay aliased to it.
                        memo[key] = self.label_index[self.label_table[lid]]
                        continue
                    members = list(memo[key])
                    for v, joins in changes:
                        i = bisect_left(members, v)
                        if joins:
                            members.insert(i, v)
                        else:
                            del members[i]
                    memo[key] = tuple(members)
        self.pool_entries_repaired += repaired
        self.pool_entries_rebuilt += rebuilt
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("cache.pool.repaired").inc(repaired)
            if rebuilt:
                metrics.counter("cache.pool.rebuilt").inc(rebuilt)

    @property
    def log_floor(self) -> int:
        """The sequence number just before the oldest logged op
        (:attr:`delta_seq` when the log is empty): the lowest position a
        reader can be caught up from."""
        log = self._mutation_log
        return log[0][0] - 1 if log else self.delta_seq

    def ops_since(self, seq: int) -> Tuple[Tuple[int, Tuple], ...]:
        """The ``(seq, op)`` mutation-log tail with sequence numbers > ``seq``.

        This is the catch-up payload shipped to pool workers whose graph
        lags the parent's. Log entries are contiguous and end at
        :attr:`delta_seq`: a caught-up reader gets ``()``, one at or above
        :attr:`log_floor` the tail from ``seq + 1``, and one below the floor
        — a checkpoint dropped ops it has not seen —
        :class:`~repro.exceptions.StaleSegmentError`, never a clamped tail.
        """
        floor = self.log_floor
        if seq < floor:
            raise StaleSegmentError(
                f"a reader at delta_seq {seq} is behind the mutation log, which "
                f"was truncated up to {floor}: its copy must be rebuilt"
            )
        return tuple(self._mutation_log[seq - floor :])

    def truncate_log(self) -> None:
        """Empty the mutation log: the cache half of a graph's checkpoint.

        Bounds what the writer keeps and pool workers replay. Topology is
        unchanged, so :attr:`version`, plans and memos are too; only a
        reader below the new :attr:`log_floor` notices.
        """
        self._mutation_log.clear()

    # ------------------------------------------------------------------
    def memo_info(self) -> Dict[str, int]:
        """Counters of the candidate-pool memo: lookups (``hits``/``misses``),
        ``size``, and what deltas did to it — entries ``repaired`` (re-tested
        against a batch's dirty vertices), ``rebuilt`` (their tuple changed)
        and ``dropped`` (bulk-batch fallback)."""
        return {
            "hits": self.candidate_memo_hits,
            "misses": self.candidate_memo_misses,
            "size": len(self._pool_memo),
            "repaired": self.pool_entries_repaired,
            "rebuilt": self.pool_entries_rebuilt,
            "dropped": self.pool_entries_dropped,
        }
