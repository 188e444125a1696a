"""The level-wise embedding search of DSQL (Algorithms 3 and 4 + Section 5).

One :class:`LevelSearchEngine` instance drives the embedding generation of
both DSQL phases. For a given *level* ``i`` it enumerates, for every
``i``-subset ``Qovp`` of query nodes, embeddings that

* match the ``Qovp`` nodes to vertices of ``TcandS`` (the solution cover as
  of the start of the level), and
* match every other node to a *fresh* vertex — one not yet consumed by any
  accepted embedding (the ``matched`` marking of Q1Search difference (3)).

The recursion has two regimes, mirroring Algorithm 4:

* **multi-embedding frames** (``Q1iSearch``) cover the ``qfList`` prefix up
  to and including the first non-overlap node; every candidate of that node
  may seed one accepted embedding;
* **single-embedding frames** (``QSearchD``) complete exactly one embedding
  per prefix and report failure with a *conflict set* used for
  conflict-directed node skipping (Section 5.3) and bad-vertex marking
  (Section 5.4).

All four Section-5 strategies are toggled by :class:`DSQLConfig`; the engine
never holds solution policy — acceptance is delegated to an
``on_embedding`` callback so Phase 1 (collect) and Phase 2 (swap) share the
generator.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.config import DSQLConfig
from repro.core.state import SearchStats
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.isomorphism.backtrack import ConflictDirectedSearch, ExpansionMeter
from repro.isomorphism.joinable import UNMATCHED
from repro.isomorphism.match import Mapping
from repro.kernels import joinable_kernel
from repro.queries.qflist import NO_FATHER

OnEmbedding = Callable[[Mapping], bool]
"""Acceptance callback: receives a full embedding, returns False to stop."""


class LevelSearchEngine(ConflictDirectedSearch):
    """Level-wise embedding generator shared by DSQL-P1 and DSQL-P2.

    Parameters
    ----------
    graph, query:
        The data and query graphs.
    candidates:
        Pre-built candidate index (``candS``).
    config:
        Strategy toggles and budgets.
    stats:
        Mutable counters, shared with the calling phase.
    matched:
        The global consumed-vertex set. The engine both reads (fresh-vertex
        exclusion) and writes (marks accepted embeddings) this set; Phase 1
        aliases it with ``V(T)``, Phase 2 lets it grow past the swapped
        solution.
    deadline:
        Absolute ``time.monotonic()`` timestamp after which the search must
        stop (``None`` disables). Shared by both phases of one query so the
        whole query honors ``config.time_budget_ms``; checked every
        :data:`~repro.isomorphism.backtrack.DEADLINE_CHECK_STRIDE`
        expansions.
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`. Only the
        :class:`~repro.isomorphism.backtrack.ExpansionMeter` touches it, on
        its (rare) deadline-stride branch; level spans and swap counters are
        emitted by the calling phases, so the disabled path adds no
        per-expansion work.
    query_id:
        Session-assigned id the meter hands to ``deadline_tick``.

    A frame pays for its candidates, not for itself. Its prologue is in
    the frame: ``Rcand`` is one probe of the view's memo of
    ``N(father's match) ∩ candS(u)`` — kept on the pool's entry
    (:class:`~repro.indexes.graph_cache.PoolEntry`;
    :meth:`~repro.indexes.candidates.CandidateIndex.localized` on a miss;
    the plan's pool at the root, which has no father), and the join
    constraint is decided from what the frame knows when it is entered —
    the matched query neighbors localization has *not* already joined
    (``Rcand ⊆ N(father's match)``, so the father's edge holds by
    construction):

    * none — injectivity is the whole test;
    * one — membership in that vertex's neighbor set, fetched once;
    * two or more — one intersection of their neighbor sets per frame
      (:meth:`_fold_join`).

    Every expansion is charged in place — count, compare with the meter's
    trip point — and only :class:`~repro.isomorphism.backtrack.
    ExpansionMeter` arms, probes and raises. The mechanism decides *how* a
    candidate is tested, never which candidates are iterated or in what
    order, so results — including budget/deadline trip points and the five
    ``kernel_*`` counters, which count the compiled decision — do not
    depend on it.

    A frame keeps nothing query-static: ``reSort``'s order and, per depth,
    the node, its father, whether it overlaps, its single-embedding cap and
    its matched query neighbors come compiled from
    :meth:`~repro.indexes.plans.QueryPlan.frames`, once per (plan, Qovp).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        candidates: CandidateIndex,
        config: DSQLConfig,
        stats: SearchStats,
        matched: Set[int],
        deadline: Optional[float] = None,
        instrumentation=None,
        query_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            query,
            candidates,
            stats,
            config.conflict_skipping,
            config.bad_vertex_skipping,
            config.relaxed_bad_vertices,
        )
        self.graph = graph
        self.stats = stats
        self.matched = matched
        self._meter = ExpansionMeter(
            stats, config.node_budget, deadline, instrumentation, query_id
        )
        self._plan = candidates.plan
        self._cache = candidates.cache
        # What a frame's prologue reads, bound once: the plan's pools, the
        # view's localized memo (probed in place; `localized` on a miss) and
        # the storage's neighbor sets.
        self._pools = self._plan.pools
        self._memo = candidates._localized
        self._localized = candidates.localized
        self._neighbor_set = graph.neighbor_set
        # Twin-class partition for the compressed join test (per-graph state
        # owned by the index cache). The compressed branch changes the join
        # *mechanism*, never which candidates are iterated or charged.
        self._compressed = self._cache.compressed() if config.use_compression else None
        self.rng = random.Random(config.seed)
        self._getrandbits = self.rng.getrandbits
        # The strategy switch a frame consults, read once.
        self._cap_singles = config.single_embedding_mode
        # Per-Qovp state, installed by run_level.
        self.order: Tuple[int, ...] = ()
        self._frames: Tuple[tuple, ...] = ()
        self._tcand: Dict[int, Set[int]] = {}
        self._on_embedding: Optional[OnEmbedding] = None

    # ------------------------------------------------------------------
    # Level driver (Algorithm 3 lines 7-14 / Algorithm 5 lines 3-9)
    # ------------------------------------------------------------------
    def run_level(
        self,
        level: int,
        tcand: Dict[int, Set[int]],
        on_embedding: OnEmbedding,
    ) -> bool:
        """Generate all level-``level`` embeddings, feeding ``on_embedding``.

        ``Qovp`` ranges over the ``level``-subsets of the plan's ``qlist``,
        each searched through its compiled frames. ``tcand`` maps each query
        node to ``candS(u) ∩ V(T)`` for the relevant solution snapshot (see
        :func:`~repro.core.phase1.tcand_snapshot`). Returns ``False`` when
        the callback asked to stop (k reached / early termination), ``True``
        when the level was exhausted. Raises :class:`BudgetExceeded` if the
        node budget trips.
        """
        self._tcand = tcand
        self._on_embedding = on_embedding
        plan, query = self._plan, self.query
        for qovp in combinations(plan.qlist, level):
            if not all(map(tcand.__getitem__, qovp)):
                continue  # some overlap node has no cover-restricted candidate
            frames = plan.frames(query, qovp)
            self.order, self._frames = frames[0], frames[1:]
            self._reset_assignment()
            root = self._multi_overlap if frames[1][2] else self._multi_anchor
            stop, _carry = root(0)
            if stop:
                return False
        return True

    def _fold_join(self, backward: Tuple[int, ...], skip: int, rcand: Sequence[int]) -> Set[int]:
        """The join constraint of a frame with two or more matched neighbors.

        ``skip`` is the father, whose edge localization already joined
        (:data:`NO_FATHER` at the root). One neighbor left: its neighbor set.
        Two or more: the members of ``rcand`` in every one of their
        neighbor sets. Rare (no tree query has such a frame), so it is a
        call; the frames' other two cases are not.
        """
        assignment = self._assignment
        matches = [assignment[w] for w in backward if w != skip]
        comp = self._compressed
        if comp is None:
            self.stats.kernel_bitset += 1
        else:
            self.stats.kernel_cbitset += 1
        if len(matches) == 1:
            return self._neighbor_set(matches[0])
        if comp is None:
            return set(rcand).intersection(*map(self._neighbor_set, matches))
        # Compressed join: fold the matched vertices' class join masks
        # (num_classes bits) and test candidates by class id. Twin symmetry
        # makes this exactly the neighbor-set predicate above wherever a
        # frame asks it — for v outside `used` (so v
        # differs from every matched vertex), edge(v, v2) holds iff their
        # classes are adjacent — or, within one class, iff the class is a
        # clique, which is precisely the self-bit of the class join mask.
        class_of = comp.class_of
        mask = joinable_kernel(comp.class_join_mask(class_of[v2]) for v2 in matches)
        return {v for v in rcand if (mask >> class_of[v]) & 1}

    # ------------------------------------------------------------------
    # Multi-embedding frames (Q1iSearch)
    # ------------------------------------------------------------------
    def _multi_overlap(self, depth: int) -> Tuple[bool, Optional[Set[int]]]:
        """An overlap node of the multi regime: recurse per candidate.

        Returns ``(stop, carry)``: ``stop`` propagates a global stop
        requested by the acceptance callback, ``carry`` a conflict set when
        conflict-directed skipping abandons this frame.
        """
        u, father, _overlap, _cap, backward = self._frames[depth]
        self._bad[depth + 1].clear()
        assignment, used = self._assignment, self._used
        stats, meter = self.stats, self._meter
        bad = self._bad[depth]
        # Rcand (setCandidates, Section 5.1): localized, then restricted to
        # TcandS. `skip`: the neighbor whose edge localization implies.
        skip = NO_FATHER
        if father != NO_FATHER:
            stats.kernel_merge += 1
            skip = father
            rcand = self._memo[u].get(assignment[father])
            if rcand is None:
                rcand = self._localized(u, assignment[father])
        else:
            stats.kernel_scan += 1
            rcand = self._pools[u]
        rcand = list(filter(self._tcand[u].__contains__, rcand))
        joined = None
        if len(backward) >= 2:
            joined = self._fold_join(backward, skip, rcand)
        else:
            stats.kernel_scalar += 1
            if backward and skip == NO_FATHER:
                joined = self._neighbor_set(assignment[backward[0]])
        child = self._multi_overlap if self._frames[depth + 1][2] else self._multi_anchor
        for v in rcand:
            stats.nodes_expanded = count = stats.nodes_expanded + 1
            if count >= meter.trip:
                meter.check()
            if v in bad:
                stats.bad_vertex_skips += 1
                continue
            if v in used or (joined is not None and v not in joined):
                continue
            assignment[u] = v
            used.add(v)
            stop, carry = child(depth + 1)
            if stop:
                return True, None
            if carry is not None:
                skip_u = self._child_failed(depth, u, v, carry)
                assignment[u] = UNMATCHED
                used.discard(v)
                if skip_u:
                    return False, carry
                continue
            assignment[u] = UNMATCHED
            used.discard(v)
        return False, None

    def _multi_anchor(self, depth: int) -> Tuple[bool, Optional[Set[int]]]:
        """The first non-overlap node: each candidate may seed one embedding.

        Returns ``(stop, carry)`` like :meth:`_multi_overlap`.
        """
        u, father, _overlap, _cap, backward = self._frames[depth]
        self._bad[depth + 1].clear()
        assignment, used = self._assignment, self._used
        stats, meter = self.stats, self._meter
        matched = self.matched
        bad = self._bad[depth]
        # Prologue as in _multi_overlap, spelled here on purpose: a shared
        # helper would be the per-frame call this layout removes.
        skip = NO_FATHER
        if father != NO_FATHER:
            stats.kernel_merge += 1
            skip = father
            rcand = self._memo[u].get(assignment[father])
            if rcand is None:
                rcand = self._localized(u, assignment[father])
        else:
            stats.kernel_scan += 1
            rcand = self._pools[u]
        joined = None
        if len(backward) >= 2:
            joined = self._fold_join(backward, skip, rcand)
        else:
            stats.kernel_scalar += 1
            if backward and skip == NO_FATHER:
                joined = self._neighbor_set(assignment[backward[0]])
        for v in rcand:
            stats.nodes_expanded = count = stats.nodes_expanded + 1
            if count >= meter.trip:
                meter.check()
            if v in matched:
                continue
            if v in bad:
                stats.bad_vertex_skips += 1
                continue
            if v in used or (joined is not None and v not in joined):
                continue
            assignment[u] = v
            used.add(v)
            conflict = self._single_frame(depth + 1)
            if conflict is None:
                embedding = tuple(assignment)
                self._clear_suffix(depth + 1)
                matched.update(embedding)
                assignment[u] = UNMATCHED
                used.discard(v)
                keep = self._on_embedding(embedding)
                if not keep:
                    return True, None
                continue
            skip_u = self._child_failed(depth, u, v, conflict)
            assignment[u] = UNMATCHED
            used.discard(v)
            if skip_u:
                return False, conflict
        return False, None

    def _clear_suffix(self, start_depth: int) -> None:
        """Unassign every node from ``start_depth`` onward (post-acceptance)."""
        assignment, used = self._assignment, self._used
        for u in self.order[start_depth:]:
            v = assignment[u]
            if v != UNMATCHED:
                used.discard(v)
                assignment[u] = UNMATCHED

    # ------------------------------------------------------------------
    # Single-embedding frames (QSearchD, Section 5.2)
    # ------------------------------------------------------------------
    def _single_frame(self, depth: int) -> Optional[Set[int]]:
        """Complete one embedding; ``None`` on success, conflict set on failure.

        On success the suffix assignments are left in place for the caller to
        read; on failure everything at or below ``depth`` is unassigned.
        """
        if depth == self._q:
            return None
        u, father, is_overlap, cap, backward = self._frames[depth]
        self._bad[depth + 1].clear()
        assignment, used = self._assignment, self._used
        stats, meter = self.stats, self._meter
        matched = self.matched
        bad = self._bad[depth]
        # Prologue as in _multi_overlap, spelled here on purpose: a shared
        # helper would be the per-frame call this layout removes.
        skip = NO_FATHER
        if father != NO_FATHER:
            stats.kernel_merge += 1
            skip = father
            rcand = self._memo[u].get(assignment[father])
            if rcand is None:
                rcand = self._localized(u, assignment[father])
        else:
            stats.kernel_scan += 1
            rcand = self._pools[u]
        if is_overlap:
            rcand = list(filter(self._tcand[u].__contains__, rcand))
        elif cap is not None and self._cap_singles:
            # Section 5.2 tries a random `cap` of them — on a copy: the tuple
            # may be the memo's (or the plan's pool), read again by every
            # later frame with the same father match. CPython's
            # `self.rng.shuffle`, written out: same permutation and state
            # after, without its two calls per element.
            rcand = list(rcand)
            getrandbits = self._getrandbits
            for i in range(len(rcand) - 1, 0, -1):
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                rcand[i], rcand[j] = rcand[j], rcand[i]
        else:
            cap = None
        joined = None
        if len(backward) >= 2:
            joined = self._fold_join(backward, skip, rcand)
        else:
            stats.kernel_scalar += 1
            if backward and skip == NO_FATHER:
                joined = self._neighbor_set(assignment[backward[0]])
        tried_valid = 0
        inherited: Set[int] = set()
        for v in rcand:
            stats.nodes_expanded = count = stats.nodes_expanded + 1
            if count >= meter.trip:
                meter.check()
            if not is_overlap and v in matched:
                continue
            mark = bad.get(v)
            if mark is not None:
                stats.bad_vertex_skips += 1
                inherited |= mark
                continue
            if v in used or (joined is not None and v not in joined):
                continue
            tried_valid += 1
            assignment[u] = v
            used.add(v)
            conflict = self._single_frame(depth + 1)
            if conflict is None:
                return None
            skip_u = self._child_failed(depth, u, v, conflict)
            assignment[u] = UNMATCHED
            used.discard(v)
            if skip_u:
                return conflict
            # Conflict-directed backjumping soundness: a node that exhausts
            # its candidates must carry its children's conflicts upward too,
            # otherwise an ancestor responsible for a deeper failure could be
            # skipped and its alternatives never explored.
            inherited |= conflict
            if cap is not None and tried_valid >= cap:
                stats.candidate_cap_hits += 1
                break
        return self._conflict_set(u, depth, inherited)
