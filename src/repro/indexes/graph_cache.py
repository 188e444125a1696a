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
  same filter profile (and repeated queries) share one pool computation.
  Each key maps to one :class:`PoolEntry`: the pool's members and, once
  asked, its **degree mass**, **set view** and **localized lists**, so
  pricing a plan walks no pool and a fresh plan builds no set and refilters
  no row an earlier plan over the entry did.

:class:`~repro.indexes.candidates.CandidateIndex` becomes a cheap per-query
restriction over these pools instead of a per-query full scan.

Live mutation support is *delta-based* rather than epoch-nuke:
:meth:`GraphIndexCache.apply_delta` repairs only the state derived from the
touched edges' 1-hop neighborhoods (the endpoints' degrees and signature
masks) and evicts only the compiled plans whose pools
intersect the dirty label set — everything else survives at the same logical
:attr:`epoch` with a bumped :attr:`delta_seq`. The candidate-pool memo is
*repaired*, not evicted: a pool is exactly the vertices of its label passing
its degree and signature tests, so each dirty vertex is re-tested against the
memo entries of its own label and an entry's tuple is rebuilt only when the
vertex joined or left it; the same loop moves an entry's degree mass by
what the vertex's degree did. An entry leaving the memo is retired
(:meth:`PoolEntry.retire`). A write therefore touches O(dirty vertices x
entries of their labels) memo words and leaves no scan for the next read.
The pair ``(epoch, delta_seq)`` is the cache :attr:`version` that keys
session memos and names the graph a worker pool serves: the epoch names this
construction and ``delta_seq`` only counts up, so it changes exactly when the
graph does. The cache keeps no history of the writes. See
``docs/mutation.md`` for the full contract.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from collections import Counter, OrderedDict
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.kernels import bitset_of

Label = Hashable

DEFAULT_CANDIDATE_MEMO_SIZE = 2048

_EPOCHS = itertools.count()
"""Process-wide monotonic epoch source for :attr:`GraphIndexCache.epoch`."""


def _plan_cache():
    # Late import: repro.indexes.plans reaches back through the isomorphism
    # package (for the search-order construction), which imports this
    # module — a top-level import here would cycle.
    from repro.indexes.plans import PlanCache

    return PlanCache()


class PoolEntry:
    """One candidate pool and what is derived from it.

    ``members`` is the ascending pool tuple, never mutated. ``view`` is
    ``frozenset(members)`` once asked (:meth:`set_view`), so every plan
    holding the entry shares one set. ``mass`` (the members' degree sum, once
    priced: :meth:`GraphIndexCache.degree_mass`) and ``lists`` (``fv →
    N(fv) ∩ members``, Section 5.1's localized lists) are kept only while the
    entry is the memo's: ``lists`` is a dict exactly then. An entry leaving
    the memo — evicted, bulk-dropped, or replaced by a rebuilt tuple, which
    inherits its mass and lists — is retired (:meth:`retire`) under the
    cache's lock; it keeps its view, which depends on ``members`` alone. An
    entry pickles as its members.
    """

    __slots__ = ("members", "mass", "view", "lists")

    def __init__(self, members: Tuple[int, ...], mass: Optional[int] = None, lists=None):
        self.members = members
        self.mass = mass
        self.view: Optional[FrozenSet[int]] = None
        self.lists: Optional[Dict[int, Tuple[int, ...]]] = lists

    def set_view(self) -> FrozenSet[int]:
        """Build and keep the set view (two racing builds store equal sets)."""
        view = self.view = frozenset(self.members)
        return view

    def retire(self) -> None:
        self.mass = self.lists = None

    def __reduce__(self):
        return PoolEntry, (self.members,)


class GraphIndexCache:
    """All per-graph filter state, computed once and shared.

    Derived per-pool state lives on the pool's :class:`PoolEntry` and is
    repaired with it under the cache's lock — nothing outside this class
    sums a pool or keeps a list filtered by one. Every other value built
    lazily from the graph is kept through :meth:`memoize`.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.labeled_graph.LabeledGraph` to index.
    candidate_memo_size:
        Cap on the memoized candidate pools (LRU eviction). ``None`` means
        unbounded; ``0`` disables memoization.
    """

    # Derived state: slot, its empty value, the rule that keeps it true to
    # the graph (docs/mutation.md § "What a mutation invalidates"). Each
    # starts empty in __init__ and after unpickling, and pickling drops it:
    # a worker refills what it touches, and these are the dicts a *read*
    # inserts into, so a query beside the pickler changes nothing it walks.
    _DERIVED = (
        ("_lock", threading.Lock, "held by apply_delta from its bump to its last pop"),
        ("_metrics", lambda: None, "session state, attached by an instrumented session"),
        ("_mask_signatures", dict, "mask -> its labels: a function of the key alone"),
        ("_pool_memo", OrderedDict, "LRU key -> PoolEntry; repaired in place, retired on exit"),
        ("_pool_keys", dict, "label id -> its memo keys: added and dropped with the entry"),
        ("plan_cache", _plan_cache, "evict_stale by label; stored by memoize"),
        ("_cost_estimator", lambda: None, "built once under _lock; calibration, no graph state"),
    )
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
        "_pool_memo_size",
        "pool_entries_repaired",
        "pool_entries_rebuilt",
        "pool_entries_dropped",
    ) + tuple(slot for slot, _, _ in _DERIVED)

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
        version is kept, so memo keys and chunk versions agree across the
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

        self._pool_memo_size = candidate_memo_size
        self.candidate_memo_hits = 0
        self.candidate_memo_misses = 0
        self.pool_entries_repaired = 0
        self.pool_entries_rebuilt = 0
        self.pool_entries_dropped = 0
        # Compiled query plans are keyed by (epoch, canonical query key);
        # the epoch names this construction — stamped here
        # and nowhere else — so keys from two caches of the "same" graph stay
        # distinguishable even if a plan cache instance were ever shared.
        self.epoch = next(_EPOCHS) if epoch is None else epoch
        # Bumped once per applied mutation, never reset; with the epoch, the version.
        self.delta_seq = delta_seq
        self._start_derived()

    def _start_derived(self) -> None:
        for slot, empty, _ in self._DERIVED:
            setattr(self, slot, empty())

    def __getstate__(self) -> dict:
        derived = {slot for slot, _, _ in self._DERIVED}
        return {s: getattr(self, s) for s in self.__slots__ if s not in derived}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._start_derived()

    def memoize(self, build, store):
        """``build()``, kept by ``store(value)`` only if no write began since
        ``build`` started — the one step every lazily built value derived
        from the graph is kept through.

        The version is read before ``build`` reads its inputs, and checked
        and stored, under ``_lock``, which :meth:`apply_delta` holds from its
        ``delta_seq`` bump to its last pop. So a value is stored before a
        write's pops (which then see it) or was built after the write; one
        built across a write goes to its caller and nowhere else. Reading the
        version under the lock too means no build starts inside a write: one
        that would waits for the write to finish.
        """
        with self._lock:
            seq = self.delta_seq
        value = build()
        with self._lock:
            if self.delta_seq == seq:
                store(value)
        return value

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

    # ------------------------------------------------------------------
    def cost_estimator(self):
        """The graph's shared :class:`~repro.cost.CostEstimator`.

        Built on first use so that sessions which never estimate pay
        nothing; shared by every session/executor/service handler on this
        cache so they also share one calibration state (the point of
        per-graph calibration). Guarded by ``_lock`` — creation is
        rare and the lock is never held while estimating.
        """
        estimator = self._cost_estimator
        if estimator is None:
            # Late import mirrors the PlanCache one above: repro.cost is a
            # leaf package, but keeping it off the module import path means
            # plain index users never load the estimator.
            from repro.cost.estimator import CostEstimator

            with self._lock:
                estimator = self._cost_estimator
                if estimator is None:
                    estimator = CostEstimator(self)
                    if self._metrics is not None:
                        estimator.attach_metrics(self._metrics)
                    self._cost_estimator = estimator
        return estimator

    # ------------------------------------------------------------------
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
        """Sorted data vertices passing the per-graph filters: the members
        of :meth:`pool_entry`."""
        return self.pool_entry(label, min_degree, signature_mask).members

    def pool_entry(self, label: Label, min_degree: int = 0, signature_mask: int = 0) -> PoolEntry:
        """The :class:`PoolEntry` of the data vertices passing the filters.

        A vertex qualifies when it carries ``label``, has degree at least
        ``min_degree``, and its neighborhood-signature mask contains
        ``signature_mask``. Entries are memoized per filter profile with LRU
        eviction, so query nodes sharing a profile — across queries in a
        session — share the scan and everything derived from it. With the
        memo off, or for a label the graph lacks, the entry is never the
        memo's and keeps no mass or lists.
        """
        lid = self.label_to_id.get(label)
        if lid is None:
            return PoolEntry(())
        key = (lid, min_degree, signature_mask)
        memo = self._pool_memo
        cap = self._pool_memo_size
        metrics = self._metrics
        with self._lock:
            if cap != 0:
                entry = memo.get(key)
                if entry is not None:
                    self.candidate_memo_hits += 1
                    if metrics is not None:
                        metrics.counter("cache.pool.hit").inc()
                    memo.move_to_end(key)
                    return entry
            self.candidate_memo_misses += 1
            if metrics is not None:
                metrics.counter("cache.pool.miss").inc()
            members = self._scan(lid, min_degree, signature_mask)
            if cap == 0:
                return PoolEntry(members)
            entry = memo[key] = PoolEntry(members, lists={})
            self._pool_keys.setdefault(lid, set()).add(key)
            if cap is not None and len(memo) > cap:
                oldest, evicted = memo.popitem(last=False)
                self._pool_keys[oldest[0]].discard(oldest)
                evicted.retire()
            return entry

    def degree_mass(self, entry: PoolEntry) -> int:
        """``sum(degrees[v] for v in entry.members)``, the cost model's mean
        pool degree times the pool's size.

        Kept on the entry while it is the memo's: computed on first ask,
        moved by :meth:`_repair_pools` with every write. A retired or
        never-memoized entry is summed here, once, and keeps nothing. Not a
        pool-memo lookup (no hit, miss or LRU touch).
        """
        with self._lock:
            mass = entry.mass
            if mass is None:
                mass = sum(map(self.degrees.__getitem__, entry.members))
                if entry.lists is not None:
                    entry.mass = mass
        return mass

    def entry_lists(self, entries) -> Tuple[int, List[Dict]]:
        """Per entry, the ``fv → N(fv) ∩ members`` dict Section 5.1's
        localized lists fill — the entry's own while it is the memo's, a
        private one once retired — and the version they were handed out at,
        read in the same hold. A write deletes exactly the lists it changed
        (:meth:`_repair_pools`); a miss stores through :meth:`keep_list`."""
        with self._lock:
            return self.delta_seq, [{} if e.lists is None else e.lists for e in entries]

    def keep_list(self, seq: int, lists: Dict, fv: int, members: Tuple[int, ...]) -> None:
        """``lists[fv] = members`` unless a write began since :meth:`entry_lists`
        read ``seq``: a view's entries are read with its dicts, so a list built
        across a write goes to its caller and nowhere else (:meth:`memoize`'s
        rule, with the version read per view rather than per list)."""
        with self._lock:
            if self.delta_seq == seq:
                lists[fv] = members

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
    # Adjacency views
    # ------------------------------------------------------------------
    def adjacency_slice(self, v: int) -> Tuple[int, ...]:
        """The sorted adjacency row of ``v`` (ascending vertex ids).

        This is the storage's own sorted tuple, surfaced here so kernel call
        sites depend on one accessor with a documented ordering guarantee.
        """
        return self.graph.neighbors(v)

    def adjacency_mask(self, v: int) -> int:
        """The neighbor bitset of ``v``: bit ``w`` set iff ``(v, w)`` is an edge.

        Built on every call (perfbench's kernel probe reads it; no engine
        does).
        """
        return bitset_of(self.graph.neighbors(v))

    # ------------------------------------------------------------------
    # Live mutation: delta-based repair
    # ------------------------------------------------------------------
    @property
    def version(self) -> Tuple[int, int]:
        """The cache version ``(epoch, delta_seq)``.

        The epoch is this cache's construction; ``delta_seq`` advances by
        one per applied mutation and by nothing else — a checkpoint leaves
        the pair as it is. Session memos, plan keys, worker pools and their
        chunks are stamped with it, so post-mutation queries never replay
        pre-mutation answers.
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
        else's, so only ``NS(u)``/``NS(v)``, their degrees and the candidate
        pools of their labels can change) and a
        vertex op dirties only the new vertex. Candidate-pool memo entries
        are repaired in place (:meth:`_repair_pools`): entries of clean
        labels keep their tuple objects, entries of a dirty label change
        only where a dirty vertex joined or left them, and of their
        localized lists only the ones the batch changed are popped.
        Compiled plans are evicted only when their label ids intersect the
        dirty set; every other plan survives at the same epoch.
        """
        # Materialized once: the op stream is read again by evict_stale's
        # edges_changed below, and callers may pass a generator.
        ops = [tuple(op) for op in ops]
        # Dirty vertex -> the other endpoints of its edge ops in the batch.
        dirty: Dict[int, List[int]] = {}
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
                dirty.setdefault(v, [])
            elif kind in ("add_edge", "remove_edge"):
                dirty.setdefault(op[1], []).append(op[2])
                dirty.setdefault(op[2], []).append(op[1])
            else:
                raise ValueError(f"unknown mutation op {kind!r}")

        # Local bindings keep the per-dirty-vertex loop tight: this path is
        # the whole point of delta repair. It reads one neighbour row per
        # dirty vertex (tests/indexes/test_delta_repair.py counts them).
        label_ids = self.label_ids
        neighbors = self.graph.neighbors
        degrees = self.degrees
        signature_masks = self.signature_masks
        dirty_per_label = Counter(map(label_ids.__getitem__, dirty))
        # One hold of the lock from the delta_seq bump to the last pop: a
        # scan reads every degree and mask from before the batch (and its
        # entry is repaired) or from after it, and a memoized value is stored
        # before the pops or built after the write (see memoize).
        # Plans and cost profiles are stored through memoize too, so a plan
        # or profile kept beside evict_stale below was built after the bump.
        with self._lock:
            self.delta_seq += len(ops)
            repairable = self._repairable_labels(dirty_per_label)
            # label id -> [(v, degree before, mask before, row, partners)]: a
            # dirty vertex of a repairable label is re-tested even if its
            # degree and mask held, for the lists its changed edges touched.
            # A vertex added by this batch was in no pool, which a degree of
            # -1 says to every ``degree >= min_degree`` test.
            tested: Dict[int, List[Tuple]] = {}
            for v, partners in dirty.items():
                row = neighbors(v)
                m = 0
                for w in row:
                    m |= 1 << label_ids[w]
                lid = label_ids[v]
                if lid in repairable:
                    before = (degrees[v], signature_masks[v]) if v < first_new else (-1, 0)
                    tested.setdefault(lid, []).append((v, *before, row, partners))
                degrees[v] = len(row)
                signature_masks[v] = m
            if tested:
                self._repair_pools(tested)
        self.plan_cache.evict_stale(
            dirty_per_label, new_labels, edges_changed=any(op[0] != "add_vertex" for op in ops)
        )
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
        remembering what each vertex looked like before. Called under
        ``_lock``.
        """
        repairable: Set[int] = set()
        dropped = 0
        memo = self._pool_memo
        for lid, dirty in dirty_per_label.items():
            keys = self._pool_keys.get(lid)
            if not keys:
                continue
            if dirty * len(keys) <= len(self.label_index[self.label_table[lid]]):
                repairable.add(lid)
                continue
            for key in keys:
                memo.pop(key).retire()
            dropped += len(keys)
            del self._pool_keys[lid]
        if dropped:
            self.pool_entries_dropped += dropped
            if self._metrics is not None:
                self._metrics.counter("cache.pool.dropped").inc(dropped)
        return repairable

    def _repair_pools(self, tested: Dict[int, List[Tuple]]) -> None:
        """Re-test the dirty vertices against the memo entries of their labels.

        ``tested[lid]`` lists ``(v, degree before, mask before, row,
        partners)``: ``row`` is ``v``'s neighbors now and ``partners`` the
        other endpoints of its edge ops in the batch; degrees and signature
        masks already hold the repaired values. A memo entry is by invariant
        exactly the vertices of its label that pass its two tests, so
        membership before the batch is decided from the old pair and
        membership after from the new one, and an entry's tuple is rebuilt
        — copied out, each flipped vertex bisected in or out, copied back,
        still ascending — only when some vertex flipped. That is at most one
        test per dirty vertex and one O(pool) rebuild per entry. A kept
        degree mass moves in the same pass; a rebuilt tuple gets a new entry,
        which inherits the old one's mass and lists, and the old one retires.
        A list ``N(fv) ∩ pool`` changes only (a) by an edge ``(fv, v)`` whose
        ``v`` is a member before or after, or (b) when a ``v`` next to ``fv``
        before or after flips: the partners of a member, and the row and the
        partners of a flipped vertex. Exactly those lists are popped. Called
        under ``_lock``.
        """
        degrees = self.degrees
        masks = self.signature_masks
        repaired = rebuilt = 0
        memo = self._pool_memo
        for lid, vertices in tested.items():
            entries = [(key, memo[key]) for key in self._pool_keys[lid]]
            repaired += len(entries)
            flips: Dict[Tuple[int, int, int], List[Tuple[int, bool]]] = {}
            for v, old_degree, old_mask, row, partners in vertices:
                degree, mask = degrees[v], masks[v]
                for key, entry in entries:
                    _, min_degree, sig = key
                    was = old_degree >= min_degree and old_mask & sig == sig
                    now = degree >= min_degree and mask & sig == sig
                    if not (was or now):
                        continue
                    fathers = partners
                    if was != now:
                        flips.setdefault(key, []).append((v, now))
                        fathers = [*partners, *row]
                    if entry.lists:
                        for fv in fathers:
                            entry.lists.pop(fv, None)
                    if entry.mass is not None:
                        entry.mass += (degree if now else 0) - (old_degree if was else 0)
            rebuilt += len(flips)
            for key, changes in flips.items():
                old = memo[key]
                if key[1] == 0 and key[2] == 0:
                    # The unfiltered pool is the label bucket itself
                    # (see _scan); stay aliased to it.
                    members = self.label_index[self.label_table[lid]]
                else:
                    members = list(old.members)
                    for v, joins in changes:
                        i = bisect_left(members, v)
                        if joins:
                            members.insert(i, v)
                        else:
                            del members[i]
                    members = tuple(members)
                memo[key] = PoolEntry(members, old.mass, old.lists)
                old.retire()
        self.pool_entries_repaired += repaired
        self.pool_entries_rebuilt += rebuilt
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("cache.pool.repaired").inc(repaired)
            if rebuilt:
                metrics.counter("cache.pool.rebuilt").inc(rebuilt)

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
