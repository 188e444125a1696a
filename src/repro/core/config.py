"""DSQL configuration and the named variants of the paper's ablation study.

The four Section-5 optimization strategies are independently toggleable so
the Appendix B.4 ablation (Figure 9) can be reproduced:

===========  =====================================================
``DSQL0``    localized subgraph search only (Section 5.1)
``DSQL1``    DSQL0 + single-embedding candidate capping (Section 5.2)
``DSQL2``    DSQL0 + conflict-table node skipping (Section 5.3)
``DSQL3``    DSQL2 + "bad"-vertex skipping (Section 5.4)
``DSQL``     all strategies (the paper's default)
``DSQLh``    all strategies with the relaxed bad-vertex rule (App. B.3)
===========  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.exceptions import ConfigError


@dataclass(frozen=True)
class DSQLConfig:
    """All knobs of the DSQL solver.

    Compiled plans are unconditional: every query runs through a
    :class:`~repro.indexes.plans.QueryPlan` memoized in the graph's shared
    :class:`~repro.indexes.plans.PlanCache`.

    Parameters
    ----------
    k:
        Maximum number of embeddings to return (the "top-k").
    localized_search:
        Section 5.1 — restrict each node's candidates to the neighborhood of
        its ``qfList`` father's matched vertex. Off = the plain Algorithm 3
        search over full candidate buckets (much slower; kept for testing).
    single_embedding_mode:
        Section 5.2 — in single-embedding search, nodes with
        ``neighborRm == 0`` try at most ``labelRm + 1`` joinable candidates.
    conflict_skipping:
        Section 5.3 — conflict-directed skipping of query nodes while
        backtracking.
    bad_vertex_skipping:
        Section 5.4 — mark-and-skip data vertices that provably cannot lead
        to an embedding under the current prefix.
    relaxed_bad_vertices:
        Appendix B.3 (``DSQLh``) — mark bad vertices without the
        no-conflict precondition. More skipping, possibly lower coverage.
    run_phase2:
        Run DSQL-P2 (swapping) when Phase 1's result is not provably good
        enough (Section 6.2's dispatch rules).
    alpha:
        The SWAPα parameter for Phase 2 (Inequality 2); the paper's analysis
        uses ``alpha = 1`` for the first (and usually only) pass.
    phase2_ratio_target:
        Skip Phase 2 once ``coverage / objective.max_coverage(k)`` reaches
        this value (paper: 0.5 of ``MAX = k*q``, the asymptotic SWAPα bound).
        ``1.0`` asks for the swapping phase wherever Phase 1 is not already
        provably optimal.
    exhaustive_level:
        Re-run each Phase-1 level until it adds nothing, restoring strict
        Lemma-1 maximality (see DESIGN.md). Slower; off by default as in the
        paper.
    node_budget:
        Upper bound on candidate expansions across the whole query; ``None``
        disables. A tripped budget yields a valid truncated result with
        ``stats.budget_exhausted`` set.
    time_budget_ms:
        Wall-clock deadline for the whole query (both phases), in
        milliseconds; ``None`` disables. The paper caps its Table 2
        experiments by wall-clock time ("> 5 hours" rows); this is the
        per-query equivalent. Enforced on the expansion hot path by a
        stride-checked monotonic clock (one ``time.monotonic()`` call every
        :data:`repro.isomorphism.backtrack.DEADLINE_CHECK_STRIDE`
        expansions), so the effective deadline overshoots by at most one
        stride. A tripped
        deadline yields a valid truncated result with
        ``stats.deadline_exhausted`` set, exactly like ``node_budget``.
    validate_results:
        Re-validate every returned embedding against the Section 2
        definition (cheap; useful in production pipelines).
    query_cache_size:
        LRU cap on the :meth:`repro.core.dsql.DSQL.query_many` result memo
        (keyed by :meth:`QueryGraph.canonical_key`). ``None`` means
        unbounded, ``0`` disables memoization.
    use_compression:
        Compile plans against the graph's twin-class partition (BoostIso
        [24]-style structural equivalence — see :mod:`repro.isomorphism.
        compression`): class-level candidate pools, the ``cbitset`` join
        kernel over class ids, and the compressed per-frame join test in
        the level engine. Results are bit-identical with the toggle on or
        off (pinned by ``tests/property/test_compression_equivalence.py``);
        the win is on structurally redundant graphs and the cost is bounded
        on redundancy-free ones by the per-depth
        :data:`~repro.kernels.CBITSET_MAX_RATIO` gate. Off by default.
    seed:
        Seed for the random candidate retention of Section 5.2. Fixed by
        default so runs are reproducible; set ``None`` for entropy.
    objective:
        The diversity objective (see :mod:`repro.coverage.objectives`):
        ``"vertex"`` (the paper, default — bit-identical to the pre-seam
        pipeline), ``"edge"`` (TED-style covered data edges), or
        ``"weighted-vertex"`` (per-vertex weights). Part of the frozen
        config's identity, so the per-config session LRU of the service
        catalog and the ``query_many`` memo (which is per-session, hence
        per-config) never mix results across objectives. The
        :class:`~repro.indexes.plans.PlanCache` key deliberately excludes
        the objective: plans encode *generation* mechanics (search order,
        join kernels), which are objective-independent.
    vertex_weights:
        Optional ``(vertex, weight)`` pairs for ``objective=
        "weighted-vertex"``; unlisted vertices weigh 1. ``None`` (default)
        derives weights from the dataset as ``1 + degree(v)``. Normalized
        to a sorted tuple of pairs so the config stays hashable and two
        equal weightings compare equal.
    auto_time_budget:
        Derive a per-query deadline from the plan's cost estimate when
        ``time_budget_ms`` is unset (see :mod:`repro.cost`): runaway
        queries self-truncate through the existing ``DeadlineExceeded``
        machinery while normal queries never notice (the derived budget
        is the estimate's band-upper times a headroom factor, floored at
        :data:`repro.cost.DEFAULT_AUTO_BUDGET_FLOOR_MS`). An explicit
        ``time_budget_ms`` always wins.
    work_unit_rate:
        Assumed engine throughput in work units (candidate expansions)
        per millisecond, used to convert cost estimates into auto time
        budgets and admission drain times. Measure with
        ``repro-dsql estimate --execute`` and tune per deployment.
    """

    k: int
    localized_search: bool = True
    single_embedding_mode: bool = True
    conflict_skipping: bool = True
    bad_vertex_skipping: bool = True
    relaxed_bad_vertices: bool = False
    run_phase2: bool = True
    alpha: float = 1.0
    phase2_ratio_target: float = 0.5
    exhaustive_level: bool = False
    node_budget: Optional[int] = 5_000_000
    time_budget_ms: Optional[float] = None
    validate_results: bool = False
    query_cache_size: Optional[int] = 128
    use_compression: bool = False
    seed: Optional[int] = 0
    objective: str = "vertex"
    vertex_weights: Optional[Tuple[Tuple[int, float], ...]] = None
    auto_time_budget: bool = False
    work_unit_rate: float = 200.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.objective not in OBJECTIVE_NAMES:
            raise ConfigError(
                f"unknown objective {self.objective!r}; choose from "
                f"{sorted(OBJECTIVE_NAMES)}"
            )
        if self.vertex_weights is not None:
            if self.objective != "weighted-vertex":
                raise ConfigError(
                    "vertex_weights is only meaningful with "
                    f"objective='weighted-vertex', got {self.objective!r}"
                )
            items = (
                self.vertex_weights.items()
                if isinstance(self.vertex_weights, dict)
                else self.vertex_weights
            )
            normalized = []
            for pair in items:
                try:
                    v, w = pair
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"vertex_weights entries must be (vertex, weight) pairs, got {pair!r}"
                    ) from None
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise ConfigError(
                        f"vertex_weights vertex ids must be non-negative ints, got {v!r}"
                    )
                if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 < w < math.inf:
                    raise ConfigError(
                        f"vertex_weights weights must be positive finite numbers, got {w!r}"
                    )
                normalized.append((v, w))
            normalized.sort()
            for (v1, _), (v2, _) in zip(normalized, normalized[1:]):
                if v1 == v2:
                    raise ConfigError(f"vertex_weights lists vertex {v1} twice")
            object.__setattr__(self, "vertex_weights", tuple(normalized))
        # NaN fails every comparison, so the numeric ranges below are written
        # as the condition that must hold, negated: ``nan < 0`` would pass.
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.phase2_ratio_target <= 1.0:
            raise ConfigError(
                f"phase2_ratio_target must be in (0, 1], got {self.phase2_ratio_target}"
            )
        if self.node_budget is not None and self.node_budget < 1:
            raise ConfigError(f"node_budget must be positive, got {self.node_budget}")
        if self.time_budget_ms is not None and not 0 < self.time_budget_ms < math.inf:
            raise ConfigError(
                f"time_budget_ms must be positive and finite, got {self.time_budget_ms}"
            )
        if self.query_cache_size is not None and self.query_cache_size < 0:
            raise ConfigError(
                f"query_cache_size must be >= 0 or None, got {self.query_cache_size}"
            )
        if self.relaxed_bad_vertices and not self.bad_vertex_skipping:
            raise ConfigError(
                "relaxed_bad_vertices (DSQLh) requires bad_vertex_skipping"
            )
        if not isinstance(self.work_unit_rate, (int, float)) or isinstance(
            self.work_unit_rate, bool
        ):
            raise ConfigError(
                f"work_unit_rate must be a number, got {self.work_unit_rate!r}"
            )
        if not 0 < self.work_unit_rate < math.inf:
            raise ConfigError(
                f"work_unit_rate must be positive and finite, got {self.work_unit_rate}"
            )

    # ------------------------------------------------------------------
    # Named variants (Appendix B.4)
    # ------------------------------------------------------------------
    @classmethod
    def dsql0(cls, k: int, **overrides) -> "DSQLConfig":
        """Localized search only."""
        return cls(
            k=k,
            single_embedding_mode=False,
            conflict_skipping=False,
            bad_vertex_skipping=False,
            **overrides,
        )

    @classmethod
    def dsql1(cls, k: int, **overrides) -> "DSQLConfig":
        """DSQL0 + single-embedding candidate capping."""
        return cls(
            k=k,
            single_embedding_mode=True,
            conflict_skipping=False,
            bad_vertex_skipping=False,
            **overrides,
        )

    @classmethod
    def dsql2(cls, k: int, **overrides) -> "DSQLConfig":
        """DSQL0 + conflict tables."""
        return cls(
            k=k,
            single_embedding_mode=False,
            conflict_skipping=True,
            bad_vertex_skipping=False,
            **overrides,
        )

    @classmethod
    def dsql3(cls, k: int, **overrides) -> "DSQLConfig":
        """DSQL2 + bad-vertex skipping."""
        return cls(
            k=k,
            single_embedding_mode=False,
            conflict_skipping=True,
            bad_vertex_skipping=True,
            **overrides,
        )

    @classmethod
    def full(cls, k: int, **overrides) -> "DSQLConfig":
        """The paper's default DSQL: all strategies on."""
        return cls(k=k, **overrides)

    @classmethod
    def dsqlh(cls, k: int, **overrides) -> "DSQLConfig":
        """DSQLh: all strategies plus the relaxed bad-vertex rule."""
        return cls(k=k, relaxed_bad_vertices=True, **overrides)

    def with_k(self, k: int) -> "DSQLConfig":
        """This configuration with a different ``k``."""
        return replace(self, k=k)


VARIANTS: Dict[str, staticmethod] = {
    "DSQL0": DSQLConfig.dsql0,
    "DSQL1": DSQLConfig.dsql1,
    "DSQL2": DSQLConfig.dsql2,
    "DSQL3": DSQLConfig.dsql3,
    "DSQL": DSQLConfig.full,
    "DSQLh": DSQLConfig.dsqlh,
}
"""Variant name -> config factory, as benchmarked in Figure 9."""


def variant_config(name: str, k: int, **overrides) -> DSQLConfig:
    """Build the named ablation variant (raises on unknown names)."""
    try:
        factory = VARIANTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown DSQL variant {name!r}; choose from {sorted(VARIANTS)}"
        ) from None
    return factory(k, **overrides)
