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
        its (rare) deadline-stride branch; level/embedding events are
        emitted by the calling phases, so the disabled path adds no
        per-expansion work.
    query_id:
        Session-assigned id stamped onto this engine's trace events/hooks.

    Candidate generation and the joinability test run through the
    :mod:`repro.kernels` paths against ``candidates.plan`` (the view's
    memoized ``N(father's match) ∩ candS(u)`` lists, bitset AND over
    matched-neighbor adjacency masks). The kernels decide *how* a candidate
    pool is computed, never which candidates are iterated or in what order,
    so results — including budget/deadline trip points — do not depend on
    the kernel chosen.

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
        # Twin-class partition for the compressed join test (per-graph state
        # owned by the index cache). The compressed branch changes the join
        # *mechanism*, never which candidates are iterated or charged.
        self._compressed = self._cache.compressed() if config.use_compression else None
        self.rng = random.Random(config.seed)
        self._q = query.size
        # The two strategy switches a frame consults, read once.
        self._localize = config.localized_search
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
            if any(not tcand[u] for u in qovp):
                continue  # some overlap node has no cover-restricted candidate
            frames = plan.frames(query, qovp)
            self.order, self._frames = frames[0], frames[1:]
            self._reset_assignment()
            stop, _carry = self._multi_frame(0)
            if stop:
                return False
        return True

    # ------------------------------------------------------------------
    # Candidate generation (setCandidates, Section 5.1)
    # ------------------------------------------------------------------
    def _rcand(self, u: int, father: int, is_overlap: bool) -> Sequence[int]:
        """``Rcand`` for node ``u``: localized, then overlap-restricted.

        Localized: ``N(father's match) ∩ candS(u)`` from the per-query view
        (:meth:`~repro.indexes.candidates.CandidateIndex.localized`: one set
        intersection per distinct pair, a memo hit afterwards — either way
        one ``kernel_merge``). The father precedes ``u`` in ``qfList``
        order, so it is matched whenever this frame is reached. Ascending,
        and possibly shared (the view's memo, the plan's pool): iterate it,
        copy before reordering.
        """
        if father != NO_FATHER and self._localize:
            self.stats.kernel_merge += 1
            base = self.candidates.localized(u, self._assignment[father])
        else:
            self.stats.kernel_scan += 1
            base = self._plan.pools[u]
        if is_overlap:
            allowed = self._tcand[u]
            return [v for v in base if v in allowed]
        return base

    def _kernel_join_test(self, backward: Tuple[int, ...]) -> Callable[[int], object]:
        """A per-frame joinability predicate ``v -> bool-ish``.

        ``backward`` is the frame's compiled list of query neighbors matched
        before it (static per depth: deeper assignments unwind before the
        next candidate is tried), so the join constraint is folded **once
        per frame** instead of per candidate, and the dispatch is on a
        length known at compile time:

        * zero matched neighbors — injectivity is the whole test;
        * exactly one — a single ``has_edge`` probe (it beats a big-int bit
          test);
        * two or more — one mask AND per frame, then a single
          ``(mask >> v) & 1`` probe per candidate.
        """
        assignment = self._assignment
        used = self._used
        stats = self.stats
        if len(backward) >= 2:
            comp = self._compressed
            if comp is not None:
                # Compressed join: fold the matched vertices' class join
                # masks (num_classes bits instead of num_vertices) and test
                # candidates by class id. Twin symmetry makes this exactly
                # the vertex-mask predicate: for v outside `used` (so v
                # differs from every matched vertex), edge(v, v2) holds iff
                # their classes are adjacent — or, within one class, iff the
                # class is a clique, which is precisely the self-bit of the
                # class join mask.
                stats.kernel_cbitset += 1
                class_of = comp.class_of
                join_mask = comp.class_join_mask
                mask = -1
                for u2 in backward:
                    mask &= join_mask(class_of[assignment[u2]])
                return lambda v: v not in used and (mask >> class_of[v]) & 1
            stats.kernel_bitset += 1
            adj_mask = self._cache.adjacency_mask
            mask = -1
            for u2 in backward:
                mask &= adj_mask(assignment[u2])
            return lambda v: v not in used and (mask >> v) & 1
        stats.kernel_scalar += 1
        if backward:
            has_edge = self.graph.has_edge
            v2 = assignment[backward[0]]
            return lambda v: v not in used and has_edge(v, v2)
        return lambda v: v not in used

    # ------------------------------------------------------------------
    # Multi-embedding frames (Q1iSearch)
    # ------------------------------------------------------------------
    def _multi_frame(self, depth: int) -> Tuple[bool, Optional[Set[int]]]:
        """Enumerate over the overlap prefix; returns ``(stop, carry)``.

        ``stop`` propagates a global stop requested by the acceptance
        callback. ``carry`` propagates a conflict set upward when
        conflict-directed skipping abandons this frame.
        """
        u, father, is_overlap, _cap, backward = self._frames[depth]
        self._bad[depth + 1].clear()
        if is_overlap:
            return self._multi_overlap(depth, u, father, backward)
        return self._multi_anchor(depth, u, father, backward)

    def _multi_overlap(
        self, depth: int, u: int, father: int, backward: Tuple[int, ...]
    ) -> Tuple[bool, Optional[Set[int]]]:
        """Overlap node inside the multi regime: recurse per candidate."""
        assignment, used = self._assignment, self._used
        bad = self._bad[depth]
        rcand = self._rcand(u, father, is_overlap=True)
        joinable = self._kernel_join_test(backward)
        charge = self._meter.charge
        for v in rcand:
            charge()
            if v in bad:
                self.stats.bad_vertex_skips += 1
                continue
            if not joinable(v):
                continue
            assignment[u] = v
            used.add(v)
            stop, carry = self._multi_frame(depth + 1)
            if stop:
                return True, None
            if carry is not None:
                skip = self._child_failed(depth, u, v, carry)
                assignment[u] = UNMATCHED
                used.discard(v)
                if skip:
                    return False, carry
                continue
            assignment[u] = UNMATCHED
            used.discard(v)
        return False, None

    def _multi_anchor(
        self, depth: int, u: int, father: int, backward: Tuple[int, ...]
    ) -> Tuple[bool, Optional[Set[int]]]:
        """The first non-overlap node: each candidate may seed one embedding."""
        assignment, used = self._assignment, self._used
        matched = self.matched
        bad = self._bad[depth]
        rcand = self._rcand(u, father, is_overlap=False)
        joinable = self._kernel_join_test(backward)
        charge = self._meter.charge
        for v in rcand:
            charge()
            if v in matched:
                continue
            if v in bad:
                self.stats.bad_vertex_skips += 1
                continue
            if not joinable(v):
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
            skip = self._child_failed(depth, u, v, conflict)
            assignment[u] = UNMATCHED
            used.discard(v)
            if skip:
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

        rcand = self._rcand(u, father, is_overlap)
        if not self._cap_singles:
            cap = None
        elif cap is not None:
            # Section 5.2 tries a random `cap` of them — on a copy: the list
            # may be the view's memo (or the plan's pool), read again by
            # every later frame with the same father match.
            rcand = list(rcand)
            self.rng.shuffle(rcand)

        assignment, used = self._assignment, self._used
        matched = self.matched
        bad = self._bad[depth]
        joinable = self._kernel_join_test(backward)
        charge = self._meter.charge
        tried_valid = 0
        inherited: Set[int] = set()
        for v in rcand:
            charge()
            if not is_overlap and v in matched:
                continue
            mark = bad.get(v)
            if mark is not None:
                self.stats.bad_vertex_skips += 1
                inherited |= mark
                continue
            if not joinable(v):
                continue
            tried_valid += 1
            assignment[u] = v
            used.add(v)
            conflict = self._single_frame(depth + 1)
            if conflict is None:
                return None
            skip = self._child_failed(depth, u, v, conflict)
            assignment[u] = UNMATCHED
            used.discard(v)
            if skip:
                return conflict
            # Conflict-directed backjumping soundness: a node that exhausts
            # its candidates must carry its children's conflicts upward too,
            # otherwise an ancestor responsible for a deeper failure could be
            # skipped and its alternatives never explored.
            inherited |= conflict
            if cap is not None and tried_valid >= cap:
                self.stats.candidate_cap_hits += 1
                break
        failure = self._conflict_set(u) | inherited
        failure.discard(u)
        return failure
