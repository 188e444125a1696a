"""Compiled query plans and the per-graph plan cache.

TurboISO-family search orders are stable per ``(graph, query)``:
the selectivity ranking, the connectivity-aware search order, the per-depth
matched-neighbor lists, and the filter profiles all depend only on inputs
that do not change between repeated queries. :class:`QueryPlan` is that
preprocessing, and the only route from a query to its candidates — every
engine reads its pools and order; :class:`PlanCache` memoizes plans behind a bounded LRU keyed by
``(graph epoch, query canonical key)`` and lives on the
shared :class:`~repro.indexes.graph_cache.GraphIndexCache`, so DSQL
sessions, the :class:`~repro.parallel.executor.BatchExecutor`, and the
service catalog all share compiled plans exactly the way they already share
candidate pools. A plan holds its pools' memo entries
(:class:`~repro.indexes.graph_cache.PoolEntry`), and a pool's set view and
localized lists live on the entry, not on a plan, so a plan compiled after
an evicted one over the same pools rebuilds neither.

A plan chooses no join mechanism: past the root every depth joins on its
matched neighbors' sets (:func:`expand_pool`, see :mod:`repro.kernels`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.indexes.graph_cache import PoolEntry
from repro.kernels import bitset_of, intersect_sets
from repro.queries.qflist import order_statistics, resort_basis, resort_order

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
    entries:
        Per query node, the :class:`~repro.indexes.graph_cache.PoolEntry`
        its pool resolved to: the memo's own at compile time, so plans over
        one filter profile share its set view and localized lists.
    pools:
        Per query node, the resolved candidate pool (ascending tuple): the
        members of ``entries[u]``.

    Beside these the plan memoizes the lazily built views of
    :attr:`_LAZIES`: the cost profile, and the per-``Qovp`` frame
    table of :meth:`frames` and the ``reSort`` basis it is compiled from. Each is a function of the
    plan (the cost profile also of ``2|E|``, so it is kept through
    :meth:`~repro.indexes.graph_cache.GraphIndexCache.memoize`), dies with
    the plan, and is dropped on pickling. They are benign under races: two
    threads may both build one, their values are equal, and the last store
    wins.
    """

    # Lazy views: slot, then its empty value for a plan of n query nodes.
    _LAZIES = (
        ("_cost_profile", lambda n: None),
        ("_frames", lambda n: {}),
        ("_interned", lambda n: {}),
        ("_resort_basis", lambda n: None),
    )
    __slots__ = (
        "key",
        "qlist",
        "order",
        "backward",
        "profiles",
        "entries",
        "pools",
        "referenced_lids",
        "absent_labels",
    ) + tuple(slot for slot, _ in _LAZIES)

    def __init__(
        self,
        key,
        qlist,
        order,
        backward,
        profiles,
        entries,
        referenced_lids=frozenset(),
        absent_labels=frozenset(),
    ):
        self.key = key
        self.qlist: Tuple[int, ...] = tuple(qlist)
        self.order: Tuple[int, ...] = tuple(order)
        self.backward: Tuple[Tuple[int, ...], ...] = tuple(tuple(b) for b in backward)
        self.profiles = tuple(profiles)
        self.entries: Tuple[PoolEntry, ...] = tuple(entries)
        self.pools: Tuple[Tuple[int, ...], ...] = tuple(e.members for e in self.entries)
        # Staleness footprint for delta-based eviction: the graph label ids
        # this plan's pools were scanned from, and the query labels that had
        # no graph id at compile time (their pools are pinned empty until
        # such a label first appears).
        self.referenced_lids: frozenset = frozenset(referenced_lids)
        self.absent_labels: frozenset = frozenset(absent_labels)
        self._reset_lazies()

    def _reset_lazies(self) -> None:
        """Empty every lazily built view (construction and unpickling)."""
        n = len(self.pools)
        for slot, empty in self._LAZIES:
            setattr(self, slot, empty(n))

    def pool(self, u: int) -> Tuple[int, ...]:
        """``candS(u)``: label + degree + signature filters (ascending)."""
        return self.pools[u]

    def pool_set(self, u: int) -> frozenset:
        """Frozenset view of ``pool(u)``, what membership is answered from:
        its entry's, built on the entry's first ask."""
        entry = self.entries[u]
        view = entry.view
        return entry.set_view() if view is None else view

    def cand_mask(self, u: int) -> int:
        """Bitset form of ``pool(u)``, built on every call (perfbench's
        kernel probe reads it; no engine does)."""
        return bitset_of(self.pools[u])

    def cost_profile(self, builder, cache):
        """Memoized cost profile for this plan (see :mod:`repro.cost`).

        ``builder(plan)`` computes the profile on first call; it is kept on
        the plan through ``cache``'s :meth:`~repro.indexes.graph_cache.
        GraphIndexCache.memoize`, so repeated estimates of a cached plan are
        free and a profile priced across a write (at the old ``2|E|``) is not
        kept behind :meth:`PlanCache.evict_stale`'s reset.
        """
        profile = self._cost_profile
        if profile is None:
            store = partial(setattr, self, "_cost_profile")
            profile = cache.memoize(partial(builder, self), store)
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

        One pass over plain lists: :func:`~repro.queries.qflist.resort_order`
        over the plan's ``resort_basis`` (built on its first miss) and the
        order's ``order_statistics``; ``neighborRm == 0`` is ``backward == N(u)``.

        ``query`` is any query with this plan's canonical key, ``qovp`` a
        combination of ``qlist``. An entry is one tuple of ``q + 1`` pointers
        keyed by the subset's bitmask — order and frame tuples are interned
        per plan, so subsets sharing a suffix share its frames — and at most
        ``2^q`` exist.
        """
        key = 0
        for u in qovp:
            key |= 1 << u
        entry = self._frames.get(key)
        if entry is None:
            basis = self._resort_basis
            if basis is None:
                basis = self._resort_basis = resort_basis(query, self.qlist)
            order = resort_order(self.qlist, *basis, qovp)
            position, label_rm = order_statistics(order, query.labels)
            interned = self._interned.setdefault
            nodes = tuple([u for u, _ in order])
            rows = [interned(nodes, nodes)]
            for depth, (u, father) in enumerate(order):
                neighbors = query.neighbors(u)
                backward = tuple([w for w in neighbors if position[w] < depth])
                overlap = u in qovp
                cap = label_rm[u] + 1 if not overlap and len(backward) == len(neighbors) else None
                frame = (u, father, overlap, cap, interned(backward, backward))
                rows.append(interned(frame, frame))
            entry = self._frames[key] = tuple(rows)
        return entry

    def __getstate__(self):
        lazies = {slot for slot, _ in self._LAZIES}
        return {s: getattr(self, s) for s in self.__slots__ if s not in lazies}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._reset_lazies()


def plan_key(cache, query):
    """The memo key: cache epoch + canonical query structure.

    The epoch names the cache's construction and never changes under it:
    what invalidates a plan is :meth:`PlanCache.evict_stale`. No session
    setting is part of the key — a plan depends on the graph and the query
    alone, so plain and compressed sessions share it.
    """
    return (cache.epoch, query.canonical_key())


def compile_plan(query, cache) -> QueryPlan:
    """Compile a :class:`QueryPlan` against a graph's index cache.

    This is the per-query preprocessing of Sections 4 and 5.1, done once:
    the filter profiles and candidate pools, the selectivity ranking and
    the connectivity-aware search order with its per-depth backward lists.
    Every engine reads these off the plan. Raises
    :class:`~repro.exceptions.InvalidQueryError` on disconnected queries
    (via the search-order construction).
    """
    # Late import: the isomorphism package imports repro.indexes.candidates,
    # which imports graph_cache, which lazily imports this module.
    from repro.isomorphism.qsearch import connected_search_order
    from repro.queries.ordering import selectivity_ranking

    q = query.size
    profiles = []
    entries: List[PoolEntry] = []
    for u in range(q):
        label = query.label(u)
        qdeg = query.degree(u)
        mask = cache.mask_for(query.neighborhood_signature(u))
        profiles.append((label, qdeg, mask))
        entries.append(PoolEntry(()) if mask is None else cache.pool_entry(label, qdeg, mask))
    pools = [entry.members for entry in entries]

    qlist = selectivity_ranking(query, [len(pool) for pool in pools])
    order = connected_search_order(query, qlist)
    position = {u: i for i, u in enumerate(order)}
    backward = [
        tuple(w for w in query.neighbors(u) if position[w] < position[u]) for u in order
    ]
    key = plan_key(cache, query)
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
        entries,
        referenced_lids=referenced,
        absent_labels=absent,
    )


def expand_pool(plan: QueryPlan, depth: int, assignment, cache):
    """The candidates of the node at search ``depth``, ascending.

    At the root its whole pool; at every other depth the backward
    neighbors' matched vertices' neighbor sets intersected with the pool's
    set view, smallest set first. ``assignment`` maps query nodes to
    matched data vertices; every backward neighbor at ``depth`` must
    already be assigned (the search order is connected, so past the root
    there is at least one).
    """
    u = plan.order[depth]
    if not depth:
        return plan.pools[u]
    neighbor_set = cache.graph.neighbor_set
    sets = [neighbor_set(assignment[w]) for w in plan.backward[depth]]
    sets.append(plan.pool_set(u))
    return intersect_sets(*sorted(sets, key=len))


class PlanCache:
    """Bounded LRU of compiled plans, shared per graph.

    Mirrors the candidate-pool memo's concurrency pattern: lookups and
    stores are serialized under one lock, compilation happens outside it
    (two racing threads may both compile; the second store wins with an
    equal plan) and a plan is stored through the graph cache's
    :meth:`~repro.indexes.graph_cache.GraphIndexCache.memoize`: none
    compiled across a write is held.
    Plain :attr:`hits`/:attr:`misses` counters always count;
    :meth:`attach_metrics` additionally mirrors them into a session
    metrics registry as ``plan.cache.hits`` / ``plan.cache.misses``.
    """

    __slots__ = ("_memo", "_size", "_lock", "hits", "misses", "_metrics")

    # Not pickled: slot, then the empty value a copy starts with. Locks
    # cannot cross process boundaries; an attached registry is session state.
    _DERIVED = (("_lock", threading.Lock), ("_metrics", lambda: None))

    def __init__(self, size: Optional[int] = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self._memo: "OrderedDict[tuple, QueryPlan]" = OrderedDict()
        self._size = size
        self.hits = 0
        self.misses = 0
        self.__setstate__({})

    def attach_metrics(self, registry) -> None:
        """Mirror hits/misses into ``registry`` from now on (None detaches)."""
        self._metrics = registry

    def get_or_compile(self, query, cache, use_compression=None) -> QueryPlan:
        """The memoized plan for ``(cache, query)``, compiling on miss.

        ``use_compression`` is accepted and ignored: a plan does not depend
        on it, and perfbench's walk still passes it."""
        key = plan_key(cache, query)
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
        # A plan compiled across a write goes to its caller and nowhere
        # else: evict_stale may already have run, and would never see it.
        return cache.memoize(
            partial(compile_plan, query, cache),
            partial(self._keep, key),
        )

    def _keep(self, key, plan: QueryPlan) -> None:
        with self._lock:
            self._memo[key] = plan
            if self._size is not None and len(self._memo) > self._size:
                self._memo.popitem(last=False)

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
        — everything needed to rebuild the plan against a fresh cache at
        startup, and exactly what the plan's memo
        key (:func:`plan_key`) already holds, so the specs are read off the
        keys. Specs follow LRU order (coldest first), so a truncated warm
        pass still recompiles the hottest plans last-in. Labels must
        round-trip through JSON; service graphs use string labels, which do.
        """
        with self._lock:
            keys = list(self._memo)
        return [
            {"labels": list(labels), "edges": [list(e) for e in edges]}
            for _epoch, (labels, edges) in keys
        ]

    def warm_from_specs(self, specs, cache) -> int:
        """Recompile plans from :meth:`dump_specs` output against ``cache``.

        Returns the number of plans warmed. Specs that no longer compile
        (malformed after hand-editing, disconnected queries, labels gone
        from the graph) are skipped rather than failing startup — a warm
        file is an optimization, never a correctness input.
        """
        from repro.graph.query_graph import QueryGraph

        # Only the two fields dump_specs writes are read; an older file's
        # toggle and per-filter fields are ignored.
        warmed = 0
        for spec in specs:
            try:
                query = QueryGraph(
                    list(spec["labels"]),
                    [tuple(e) for e in spec["edges"]],
                )
                self.get_or_compile(query, cache)
                warmed += 1
            except Exception:
                continue
        return warmed

    def info(self) -> Dict[str, int]:
        """Hit/miss/size counters for the plan memo."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._memo)}

    def __getstate__(self) -> dict:
        derived = {slot for slot, _ in self._DERIVED}
        return {s: getattr(self, s) for s in self.__slots__ if s not in derived}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        for slot, empty in self._DERIVED:
            setattr(self, slot, empty())
