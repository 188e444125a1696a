"""Compiled query plans and the per-graph plan cache.

TurboISO-family search orders are stable per ``(graph, query)``:
the selectivity ranking, the connectivity-aware search order, the per-depth
matched-neighbor lists, and the filter profiles all depend only on inputs
that do not change between repeated queries. :class:`QueryPlan` is that
preprocessing, and the only route from a query to its candidates — every
engine reads its pools, order and kernels; :class:`PlanCache` memoizes plans behind a bounded LRU keyed by
``(graph epoch, query canonical key, use_compression)`` and lives on the
shared :class:`~repro.indexes.graph_cache.GraphIndexCache`, so DSQL
sessions, the :class:`~repro.parallel.executor.BatchExecutor`, and the
service catalog all share compiled plans exactly the way they already share
candidate pools.

The plan also records a **kernel choice per search depth** (see
:mod:`repro.kernels` and ``docs/performance.md``): depths with no matched
backward neighbor scan their pool; depths with one use the merge kernel
(the anchors' neighbor sets intersected with the pool set); depths with two
or more matched neighbors and a pool large enough to amortize the mask work
use the bitset kernel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from heapq import merge as heapq_merge
from typing import Dict, List, Optional, Tuple

from repro.kernels import (
    BITSET,
    BITSET_MIN_POOL,
    CBITSET,
    CBITSET_MAX_RATIO,
    MERGE,
    SCAN,
    bitset_members,
    bitset_of,
    intersect_sets,
    joinable_kernel,
)
from repro.queries.qflist import resort

DEFAULT_PLAN_CACHE_SIZE = 128
"""LRU cap on memoized plans per graph (each plan is a few tuples)."""


class QueryPlan:
    """Everything per-(graph, query) the engines would otherwise recompute.

    Attributes
    ----------
    key:
        The cache key this plan was compiled under.
    qlist:
        The selectivity ranking (Section 4's ``qList``), ascending score.
    order:
        The connectivity-aware search order derived from ``qlist``.
    backward:
        Per search depth, the query neighbors of ``order[depth]`` already
        matched when that depth is reached.
    profiles:
        Per query node, the full filter profile ``(label, query_degree,
        signature_mask)`` — ``mask is None`` when the query needs a label
        absent from the graph.
    pools:
        Per query node, the resolved candidate pool (ascending tuple).
    kernels:
        Per search depth, the chosen expansion kernel kind
        (:data:`~repro.kernels.SCAN` / :data:`~repro.kernels.MERGE` /
        :data:`~repro.kernels.BITSET` / :data:`~repro.kernels.CBITSET`).
    class_pools:
        Compression-enabled plans only (else ``None``): per query node, the
        ascending twin-class ids covering ``pools[u]``. Twin classes are
        filter-uniform (members share label, degree, and signature), so a
        class is in the pool iff all its members are — the class pool is a
        lossless re-encoding of the vertex pool at the compression ratio.

    Beside these the plan memoizes lazily built views (pool sets, bitsets,
    the cost profile, the per-``Qovp`` frame table of :meth:`frames`); they
    are dropped on pickling and rebuilt on demand.
    """

    __slots__ = (
        "key",
        "qlist",
        "order",
        "backward",
        "profiles",
        "pools",
        "kernels",
        "class_pools",
        "referenced_lids",
        "absent_labels",
        "_cand_masks",
        "_pool_sets",
        "_class_masks",
        "_cost_profile",
        "_frames",
        "_interned",
    )

    def __init__(
        self,
        key,
        qlist,
        order,
        backward,
        profiles,
        pools,
        kernels,
        referenced_lids=frozenset(),
        absent_labels=frozenset(),
        class_pools=None,
    ):
        self.key = key
        self.qlist: Tuple[int, ...] = tuple(qlist)
        self.order: Tuple[int, ...] = tuple(order)
        self.backward: Tuple[Tuple[int, ...], ...] = tuple(tuple(b) for b in backward)
        self.profiles = tuple(profiles)
        self.pools: Tuple[Tuple[int, ...], ...] = tuple(pools)
        self.kernels: Tuple[str, ...] = tuple(kernels)
        # Staleness footprint for delta-based eviction: the graph label ids
        # this plan's pools were scanned from, and the query labels that had
        # no graph id at compile time (their pools are pinned empty until
        # such a label first appears).
        self.referenced_lids: frozenset = frozenset(referenced_lids)
        self.absent_labels: frozenset = frozenset(absent_labels)
        self.class_pools: Optional[Tuple[Tuple[int, ...], ...]] = (
            None if class_pools is None else tuple(tuple(cp) for cp in class_pools)
        )
        self._reset_lazies()

    _LAZIES = (
        "_cand_masks",
        "_pool_sets",
        "_class_masks",
        "_cost_profile",
        "_frames",
        "_interned",
    )

    def _reset_lazies(self) -> None:
        """Empty every lazily built view (construction and unpickling)."""
        self._cand_masks: List[Optional[int]] = [None] * len(self.pools)
        self._pool_sets: List[Optional[frozenset]] = [None] * len(self.pools)
        self._class_masks: List[Optional[int]] = [None] * len(self.pools)
        self._cost_profile = None
        self._frames: Dict[int, tuple] = {}
        self._interned: Dict[tuple, tuple] = {}

    def pool(self, u: int) -> Tuple[int, ...]:
        """``candS(u)``: label + degree + signature filters (ascending)."""
        return self.pools[u]

    def pool_set(self, u: int) -> frozenset:
        """Frozenset view of ``pool(u)``, built lazily and memoized.

        The view lives on the plan — one build amortized across every
        session and repeated query sharing the cached plan; it is what
        :class:`CandidateIndex` answers membership from. Benign under
        races (equal values; last store wins).
        """
        view = self._pool_sets[u]
        if view is None:
            view = frozenset(self.pools[u])
            self._pool_sets[u] = view
        return view

    def cand_mask(self, u: int) -> int:
        """Bitset form of ``pool(u)``, built lazily and memoized.

        Benign under races: two threads may both build the same mask; the
        last store wins and both values are equal.
        """
        mask = self._cand_masks[u]
        if mask is None:
            mask = bitset_of(self.pools[u])
            self._cand_masks[u] = mask
        return mask

    def class_mask(self, u: int) -> int:
        """Bitset over twin-class ids of ``class_pools[u]``, lazy + memoized.

        The compressed analogue of :meth:`cand_mask` — ``num_classes`` bits
        instead of ``num_vertices``. Only valid on compression-enabled plans.
        Benign under races (equal values; last store wins).
        """
        mask = self._class_masks[u]
        if mask is None:
            mask = bitset_of(self.class_pools[u])
            self._class_masks[u] = mask
        return mask

    def cost_profile(self, builder):
        """Memoized cost profile for this plan (see :mod:`repro.cost`).

        ``builder(plan)`` computes the profile on first call; the result
        is cached on the plan so repeated estimates of a cached plan are
        free. The profile depends only on immutable plan state, so the
        benign-race pattern of the other lazies applies (equal values;
        last store wins).
        """
        profile = self._cost_profile
        if profile is None:
            profile = builder(self)
            self._cost_profile = profile
        return profile

    def frames(self, query, qovp: Tuple[int, ...]) -> tuple:
        """The level engine's compiled frames for overlap subset ``qovp``.

        ``reSort`` (Section 5.1) and everything a frame would re-derive from
        it, once per ``(plan, Qovp)``: ``(order, frame_0, ..., frame_{q-1})``
        with ``order`` the ``qfList`` node order and ``frame_d = (node,
        father, is_overlap, cap, backward)`` — ``cap`` the Section 5.2 bound
        ``labelRm + 1`` (``None`` for overlap nodes and ``neighborRm > 0``),
        ``backward`` the query neighbors of ``node`` matched before depth
        ``d``. It depends on the query structure, ``qlist`` and ``qovp``
        only, never on a session's configuration.

        ``query`` is any query with this plan's canonical key, ``qovp`` a
        combination of ``qlist``. An entry is one tuple of ``q + 1`` pointers
        keyed by the subset's bitmask — order and frame tuples are interned
        per plan, so subsets sharing a suffix share its frames — and at most
        ``2^q`` exist. Lazy like :meth:`pool_set`: benign under races,
        dropped on pickling.
        """
        key = 0
        for u in qovp:
            key |= 1 << u
        entry = self._frames.get(key)
        if entry is None:
            overlaps = frozenset(qovp)
            qf = resort(query, self.qlist, overlaps)
            pool = self._interned

            def interned(value: tuple) -> tuple:
                return pool.setdefault(value, value)

            rows = [interned(tuple(qf.node_order()))]
            for depth, e in enumerate(qf.entries):
                u = e.node
                overlap = u in overlaps
                single = not overlap and qf.neighbor_rm[u] == 0
                cap = qf.label_rm[u] + 1 if single else None
                backward = tuple(w for w in query.neighbors(u) if qf.rank[w] < depth)
                rows.append(interned((u, e.father, overlap, cap, interned(backward))))
            entry = self._frames[key] = tuple(rows)
        return entry

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__ if s not in self._LAZIES}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._reset_lazies()


def plan_key(cache, query, use_compression: bool = False):
    """The memo key: cache epoch + canonical query structure + the toggle.

    The epoch names the cache's construction and never changes under it:
    what invalidates a plan is :meth:`PlanCache.evict_stale`.
    ``use_compression`` is part of the key because compressed and plain
    plans differ structurally (class pools, ``cbitset`` kernel choices) —
    one graph can serve both kinds of traffic without thrashing the cache.
    """
    return (cache.epoch, query.canonical_key(), use_compression)


def compile_plan(query, cache, use_compression: bool = False) -> QueryPlan:
    """Compile a :class:`QueryPlan` against a graph's index cache.

    This is the per-query preprocessing of Sections 4 and 5.1, done once:
    the filter profiles and candidate pools, the selectivity ranking, the
    connectivity-aware search order with its per-depth backward lists, and
    a join kernel per depth. Every engine reads these off the plan. Raises
    :class:`~repro.exceptions.InvalidQueryError` on disconnected queries
    (via the search-order construction).

    With ``use_compression`` the plan additionally carries the twin-class
    re-encoding of every pool (:attr:`QueryPlan.class_pools`) and upgrades
    :data:`~repro.kernels.BITSET` depths whose pool compresses below
    :data:`~repro.kernels.CBITSET_MAX_RATIO` to the class-level
    :data:`~repro.kernels.CBITSET` kernel. Vertex pools, order, and
    tie-breaks are untouched — the compressed plan emits byte-equal
    candidate lists, which is the equivalence contract
    (``tests/property/test_compression_equivalence.py``).
    """
    # Late import: the isomorphism package imports repro.indexes.candidates,
    # which imports graph_cache, which lazily imports this module.
    from repro.isomorphism.qsearch import connected_search_order
    from repro.queries.ordering import selectivity_ranking

    q = query.size
    profiles = []
    pools: List[Tuple[int, ...]] = []
    for u in range(q):
        label = query.label(u)
        qdeg = query.degree(u)
        mask = cache.mask_for(query.neighborhood_signature(u))
        profiles.append((label, qdeg, mask))
        if mask is None:
            pool: Tuple[int, ...] = ()
        else:
            pool = cache.candidate_pool(label, min_degree=qdeg, signature_mask=mask)
        pools.append(pool)

    qlist = selectivity_ranking(query, [len(pool) for pool in pools])
    order = connected_search_order(query, qlist)
    position = {u: i for i, u in enumerate(order)}
    backward = [
        tuple(w for w in query.neighbors(u) if position[w] < position[u]) for u in order
    ]
    class_pools: Optional[List[Tuple[int, ...]]] = None
    if use_compression:
        class_of = cache.compressed().class_of
        class_pools = [
            tuple(sorted({class_of[v] for v in pool})) for pool in pools
        ]
    kernels = []
    for depth, u in enumerate(order):
        if not backward[depth]:
            kernels.append(SCAN)
        elif len(backward[depth]) >= 2 and len(pools[u]) >= BITSET_MIN_POOL:
            # Upgrade to the class-level kernel only where the pool actually
            # compresses — near ratio 1.0 the class fold plus member merge
            # costs more than the plain vertex AND.
            if (
                class_pools is not None
                and len(class_pools[u]) <= CBITSET_MAX_RATIO * len(pools[u])
            ):
                kernels.append(CBITSET)
            else:
                kernels.append(BITSET)
        else:
            kernels.append(MERGE)
    key = plan_key(cache, query, use_compression)
    referenced: set = set()
    absent: set = set()
    for u in range(q):
        label = query.label(u)
        lid = cache.label_id(label)
        if lid is None:
            absent.add(label)
        else:
            referenced.add(lid)
    return QueryPlan(
        key,
        qlist,
        order,
        backward,
        profiles,
        pools,
        kernels,
        referenced_lids=referenced,
        absent_labels=absent,
        class_pools=class_pools,
    )


def expand_pool(plan: QueryPlan, depth: int, assignment, cache):
    """Candidate pool at ``depth`` via the plan's chosen kernel.

    Returns ``(kind, pool)`` where ``pool`` is the ascending candidate list:
    ``sorted(∩ backward-neighbor rows)`` filtered by candidate membership,
    whichever kernel computes it. ``assignment`` maps query nodes
    to matched data vertices; every backward neighbor at ``depth`` must
    already be assigned.
    """
    u = plan.order[depth]
    kind = plan.kernels[depth]
    if kind == SCAN:
        return kind, list(plan.pool(u))
    backward = plan.backward[depth]
    if kind == BITSET:
        mask = joinable_kernel(cache.adjacency_mask(assignment[w]) for w in backward)
        return kind, bitset_members(mask & plan.cand_mask(u))
    if kind == CBITSET:
        # Class-level join: fold the anchors' class join masks at
        # num_classes bits, AND the class pool, then expand admitted
        # classes to their ascending members. Twin symmetry makes the
        # result byte-equal to the BITSET path — with one correction:
        # a vertex adjacency mask never carries its own bit, but a
        # multi-member clique class's join mask does, so a backward
        # anchor can be re-admitted via its own class and must be
        # filtered back out.
        comp = cache.compressed()
        class_of = comp.class_of
        mask = -1
        anchors = []
        for w in backward:
            a = assignment[w]
            anchors.append(a)
            mask &= comp.class_join_mask(class_of[a])
            if not mask:
                return kind, []
        mask &= plan.class_mask(u)
        cids = bitset_members(mask)
        classes = comp.classes
        if len(cids) == 1:
            members: List[int] = list(classes[cids[0]])
        else:
            members = list(heapq_merge(*(classes[cid] for cid in cids)))
        if any((mask >> class_of[a]) & 1 for a in anchors):
            drop = set(anchors)
            members = [v for v in members if v not in drop]
        return kind, members
    neighbor_set = cache.graph.neighbor_set
    sets = [neighbor_set(assignment[w]) for w in backward]
    sets.append(plan.pool_set(u))
    return kind, intersect_sets(*sorted(sets, key=len))


class PlanCache:
    """Bounded LRU of compiled plans, shared per graph.

    Mirrors the candidate-pool memo's concurrency pattern: lookups and
    stores are serialized under one lock, compilation happens outside it
    (two racing threads may both compile; the second store wins with an
    equal plan) and a plan is stored only if the graph's ``delta_seq`` is
    what it was before the compile: none compiled across a write is held.
    Plain :attr:`hits`/:attr:`misses` counters always count;
    :meth:`attach_metrics` additionally mirrors them into a session
    metrics registry as ``plan.cache.hits`` / ``plan.cache.misses``.
    """

    __slots__ = ("_memo", "_size", "_lock", "hits", "misses", "_metrics")

    def __init__(self, size: Optional[int] = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self._memo: "OrderedDict[tuple, QueryPlan]" = OrderedDict()
        self._size = size
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Mirror hits/misses into ``registry`` from now on (None detaches)."""
        self._metrics = registry

    def get_or_compile(self, query, cache, use_compression: bool = False) -> QueryPlan:
        """The memoized plan for ``(cache, query, toggle)``, compiling on miss."""
        key = plan_key(cache, query, use_compression)
        seq = cache.delta_seq
        memo = self._memo
        metrics = self._metrics
        with self._lock:
            hit = memo.get(key)
            if hit is not None:
                self.hits += 1
                if metrics is not None:
                    metrics.counter("plan.cache.hits").inc()
                memo.move_to_end(key)
                return hit
            self.misses += 1
            if metrics is not None:
                metrics.counter("plan.cache.misses").inc()
        plan = compile_plan(query, cache, use_compression=use_compression)
        with self._lock:
            # A plan compiled across a write goes to its caller and nowhere
            # else: evict_stale may already have run, and would never see it.
            if cache.delta_seq == seq:
                memo[key] = plan
                if self._size is not None and len(memo) > self._size:
                    memo.popitem(last=False)
        return plan

    def clear(self) -> None:
        """Drop every memoized plan (tests start cold with it; no write or checkpoint does)."""
        with self._lock:
            self._memo.clear()

    def evict_stale(self, dirty_lids, new_labels=(), edges_changed: bool = False) -> int:
        """Delta eviction: drop only plans whose footprint intersects a delta.

        A plan is stale iff its :attr:`QueryPlan.referenced_lids` intersect
        ``dirty_lids`` (a pool it resolved may have gained/lost vertices) or
        one of its :attr:`QueryPlan.absent_labels` appears in ``new_labels``
        (a pool pinned empty at compile time is empty no longer). Every
        other plan survives at the same epoch — this is what makes
        invalidation delta-based instead of epoch-nuke. With
        ``edges_changed`` a survivor forgets its cost profile, whose ``2|E|``
        moved, and is priced again. Returns the number of evicted plans.
        """
        dirty = frozenset(dirty_lids)
        added = frozenset(new_labels)
        if not dirty and not added:
            return 0
        with self._lock:
            stale = [
                key
                for key, plan in self._memo.items()
                if (plan.referenced_lids & dirty) or (plan.absent_labels & added)
            ]
            for key in stale:
                del self._memo[key]
            if edges_changed:
                for plan in self._memo.values():
                    plan._cost_profile = None
        return len(stale)

    # ------------------------------------------------------------------
    # Disk-backed warm start (serve --plan-cache-file)
    # ------------------------------------------------------------------
    def dump_specs(self) -> List[dict]:
        """JSON-safe recompile specs for every currently memoized plan.

        Each spec carries the canonical query structure (labels + edges)
        and the compile toggle — everything needed to rebuild the plan
        against a fresh cache at startup, and exactly what the plan's memo
        key (:func:`plan_key`) already holds, so the specs are read off the
        keys. Specs follow LRU order (coldest first), so a truncated warm
        pass still recompiles the hottest plans last-in. Labels must
        round-trip through JSON; service graphs use string labels, which do.
        """
        with self._lock:
            keys = list(self._memo)
        return [
            {
                "labels": list(labels),
                "edges": [list(e) for e in edges],
                "use_compression": use_compression,
            }
            for _epoch, (labels, edges), use_compression in keys
        ]

    def warm_from_specs(self, specs, cache) -> int:
        """Recompile plans from :meth:`dump_specs` output against ``cache``.

        Returns the number of plans warmed. Specs that no longer compile
        (malformed after hand-editing, disconnected queries, labels gone
        from the graph) are skipped rather than failing startup — a warm
        file is an optimization, never a correctness input.
        """
        from repro.graph.query_graph import QueryGraph

        # Only the three fields dump_specs writes are read; an older file's
        # two per-filter fields are ignored.
        warmed = 0
        for spec in specs:
            try:
                query = QueryGraph(
                    list(spec["labels"]),
                    [tuple(e) for e in spec["edges"]],
                )
                self.get_or_compile(
                    query, cache, use_compression=bool(spec.get("use_compression", False))
                )
                warmed += 1
            except Exception:
                continue
        return warmed

    def info(self) -> Dict[str, int]:
        """Hit/miss/size counters for the plan memo."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._memo)}

    # Locks cannot cross process boundaries; an attached registry is
    # session state. Same rules as GraphIndexCache.
    def __getstate__(self) -> dict:
        skip = ("_lock", "_metrics")
        return {s: getattr(self, s) for s in self.__slots__ if s not in skip}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()
        self._metrics = None
