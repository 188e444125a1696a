"""Static per-plan cost model: expected engine charges before the search runs.

The model follows the color-coding path-count estimation recipe
("Subgraph Counting: Color Coding Beyond Trees", PAPERS.md) — expected
per-depth frontier sizes as a product of per-join selectivities under the
configuration-model edge probability ``P(x ~ y) ≈ deg(x)·deg(y) / 2|E|``
— but is shaped around how :class:`~repro.core.search.LevelSearchEngine`
actually charges ``SearchStats.nodes_expanded``:

* charges are per candidate *considered* (the localized
  ``neighbors(father) ∩ pool`` row), not per surviving join, so the
  per-depth term is the expected row length, with the remaining backward
  joins only thinning the next depth's frames;
* the per-root DFS stops at its **first** embedding, so when embeddings
  are abundant a root costs ``~C/E`` rather than its full subtree ``C``;
* level 0 stops after ``k`` accepted embeddings, so only
  ``~k / P(root succeeds)`` roots are ever charged;
* when the *disjoint-embedding supply* runs out before ``k`` (some pool
  smaller than ``k``, or roots rarely succeed), Phase 1 escalates to the
  overlap levels of Algorithm 3, whose cost scales with the total
  candidate-pool mass.

Everything the model reads — pool sizes, search order, backward tuples,
each pool's degree mass — is already on the compiled
:class:`~repro.indexes.plans.QueryPlan` and its
pool entries (:class:`~repro.indexes.graph_cache.PoolEntry`, which keep the
mass, so no pool is walked here); the ``k``-independent part is
memoized on the plan (free after compile, re-priced when ``2|E|`` moves).
One estimated charge is one **work unit**, the currency the service's
work-unit admission controller and the per-client token buckets price
requests in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cost.calibration import CalibrationState, EwmaCalibration

__all__ = [
    "CostEstimate",
    "CostEstimator",
    "raw_cost_profile",
    "raw_expansions",
    "derive_time_budget_ms",
    "DEFAULT_K",
    "DEFAULT_WORK_UNIT_RATE",
    "DEFAULT_AUTO_BUDGET_FLOOR_MS",
]

DEFAULT_K = 40
"""Result-set size assumed when the caller does not supply ``k`` (matches
the benchmark suite's default diversified top-k)."""

DEFAULT_FRONTIER_CAP = 1e9
"""Per-depth frontier ceiling: joins on dense pools can push the raw
product far past anything the engine would ever touch; the cap keeps
estimates finite and keeps one absurd depth from erasing the ranking
signal of the rest of the plan."""

_EMBEDDING_CAP = 1e12
"""Separate (higher) cap for the expected-embedding product, which only
ever appears in denominators."""

_MIN_BRANCH = 1e-3
"""Floor on per-depth branching: a zero expectation would zero out every
later depth, but the engine still charges the row scans that prove it."""

DEFAULT_WORK_UNIT_RATE = 200.0
"""Default engine throughput assumed by auto budgets, in work units
(candidate charges) per millisecond. Deliberately conservative for the
pure-Python kernels; measure with ``repro-dsql estimate --execute`` and
override via ``DSQLConfig.work_unit_rate`` for real deployments."""

DEFAULT_AUTO_BUDGET_FLOOR_MS = 50.0
"""Auto-derived deadlines never drop below this floor, so estimation
noise on genuinely tiny queries cannot truncate them."""

DEFAULT_AUTO_BUDGET_HEADROOM = 4.0
"""Auto budgets allow this multiple of the band's upper edge before the
deadline fires — the budget exists to stop runaways, not to shave p50."""

_OVERLAP_MASS_WEIGHT = 0.5
"""Weight of the pool-mass term modeling the overlap levels (Algorithm 3
levels ≥ 1), applied in proportion to the disjoint-supply deficit."""


@dataclass(frozen=True)
class CostProfile:
    """The ``k``-independent part of a plan's cost model (memoized on the
    plan). All expectations are *per root candidate* of ``order[0]``.

    ``charges_per_root`` is the expected number of engine charges to
    exhaust one root's subtree; ``embeddings_per_root`` the expected
    number of embeddings under one root; ``per_depth_frames`` the expected
    surviving frames per depth (diagnostic, used by the CLI).
    """

    empty: bool
    depth: int
    root_pool: int
    min_pool: int
    pool_mass: int
    charges_per_root: float
    embeddings_per_root: float
    per_depth_frames: Tuple[float, ...]


@dataclass(frozen=True)
class CostEstimate:
    """One plan's estimated cost, in engine work units (charges).

    ``work_units`` is the calibrated point estimate; ``lower``/``upper``
    bound it by the calibration's multiplicative confidence band.
    ``raw_expansions`` is the uncalibrated model output — the quantity
    calibration observations must be keyed to.
    """

    work_units: float
    raw_expansions: float
    lower: float
    upper: float
    k: int
    per_depth: Tuple[float, ...]
    calibration_factor: float
    observations: int

    @property
    def is_free(self) -> bool:
        """True when the model proves the search cannot expand anything
        (some candidate pool is empty) — such queries admit for free."""
        return self.work_units <= 0.0

    def to_wire(self) -> Dict[str, float]:
        """JSON-friendly form echoed in service responses."""
        return {
            "work_units": round(self.work_units, 3),
            "lower": round(self.lower, 3),
            "upper": round(self.upper, 3),
            "calibration_factor": round(self.calibration_factor, 6),
            "observations": self.observations,
        }


def raw_cost_profile(plan, cache) -> CostProfile:
    """The ``k``-independent cost profile of a compiled plan.

    If any candidate pool is empty the profile is marked ``empty``: the
    level-wise search cannot produce an embedding and terminates without
    charging meaningful work, and the admission layer must not tax such
    queries (estimate 0 ⇒ admit free).

    A pool's mean degree is its degree mass over its size, and the mass is
    kept on the pool's entry (:meth:`GraphIndexCache.degree_mass`): pricing
    a plan reads one integer per pool and iterates none.
    """
    order = plan.order
    pools = plan.pools
    depth = len(order)
    if not order or any(not p for p in pools):
        return CostProfile(
            empty=True,
            depth=depth,
            root_pool=0,
            min_pool=0,
            pool_mass=0,
            charges_per_root=0.0,
            embeddings_per_root=0.0,
            per_depth_frames=(0.0,) * depth,
        )

    two_m = max(1.0, 2.0 * float(cache.graph.num_edges))
    mass_of = cache.degree_mass
    mean_deg = [mass_of(entry) / len(entry.members) for entry in plan.entries]

    frames = 1.0
    charges = 0.0
    embeddings = 1.0
    per_depth = [1.0]
    for d in range(1, depth):
        u = order[d]
        backward = plan.backward[d]
        father = backward[0]
        # Expected localized row |neighbors(v_father) ∩ pool(u)|: the
        # father's degree times the degree-biased membership probability.
        row = mean_deg[father] * len(pools[u]) * mean_deg[u] / two_m
        row = max(min(row, float(len(pools[u]))), _MIN_BRANCH)
        # The remaining backward joins are per-candidate tests: they do
        # not reduce charges at this depth, only the frames that survive.
        survive = 1.0
        for w in backward[1:]:
            survive *= min(1.0, mean_deg[u] * mean_deg[w] / two_m)
        branch = row * survive
        charges += frames * row
        frames = min(frames * branch, DEFAULT_FRONTIER_CAP)
        embeddings = min(embeddings * branch, _EMBEDDING_CAP)
        per_depth.append(frames)

    return CostProfile(
        empty=False,
        depth=depth,
        root_pool=len(pools[order[0]]),
        min_pool=min(len(p) for p in pools),
        pool_mass=sum(len(p) for p in pools),
        charges_per_root=charges,
        embeddings_per_root=embeddings,
        per_depth_frames=tuple(per_depth),
    )


def raw_expansions(profile: CostProfile, k: int) -> float:
    """Fold ``k`` into a profile: expected total engine charges.

    Models the three regimes of Phase 1 (module docstring): root scan +
    first-success DFS per root, early termination once ``k`` roots
    succeed, and the overlap-level escalation (pool-mass term) in
    proportion to the disjoint-supply deficit.
    """
    if profile.empty:
        return 0.0
    q = profile.depth
    k = max(1, int(k))
    success = min(1.0, profile.embeddings_per_root)
    root_pool = float(profile.root_pool)
    # Roots charged before k embeddings are found (all of them when
    # success is rare enough that the pool is exhausted first).
    roots = min(root_pool, k / max(success, k / root_pool))
    # A successful root stops at its first embedding (~C/E of its
    # subtree); a failing root pays for the full exhaustion proof.
    per_root = (
        profile.charges_per_root
        * min(1.0, 1.0 / max(profile.embeddings_per_root, 1e-12))
        + q
    )
    estimate = roots * (1.0 + per_root) + 2.0 ** min(q, 12)
    # Disjoint-supply deficit: embeddings level 0 cannot deliver are
    # hunted through the overlap levels, whose combination machinery
    # rescans candidate pools.
    supply = min(float(profile.min_pool), root_pool * max(success, 1e-12) * q)
    deficit = max(0.0, k - min(float(k), supply))
    estimate += _OVERLAP_MASS_WEIGHT * (deficit / k) * profile.pool_mass
    return estimate


class CostEstimator:
    """Per-graph estimator: raw model + online calibration + metrics.

    One instance lives on each :class:`GraphIndexCache` (created lazily,
    like the plan cache) so every session, executor, and service handler
    sharing the graph also shares the calibration state.
    """

    __slots__ = ("_cache", "_calibration", "_metrics", "_metrics_name")

    def __init__(self, cache) -> None:
        self._cache = cache
        self._calibration = EwmaCalibration()
        self._metrics = None
        self._metrics_name: Optional[str] = None

    # -- estimation ----------------------------------------------------
    def estimate(self, plan, k: Optional[int] = None) -> CostEstimate:
        """Calibrated cost estimate for a compiled plan at result size ``k``.

        The ``k``-independent profile is memoized on the plan itself
        (free after compile); only the ``k`` fold, the calibration factor,
        and the band are re-computed per call, so long-lived cached plans
        still see fresh calibration.
        """
        profile = plan.cost_profile(self._build_profile, self._cache)
        raw = raw_expansions(profile, DEFAULT_K if k is None else k)
        state = self._calibration.snapshot()  # read once: factor, band and count agree
        factor = state.factor
        band = state.band
        point = raw * factor
        estimate = CostEstimate(
            work_units=point,
            raw_expansions=raw,
            lower=point / band,
            upper=point * band,
            k=DEFAULT_K if k is None else int(k),
            per_depth=profile.per_depth_frames,
            calibration_factor=factor,
            observations=state.observations,
        )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(self._metric("cost.estimates")).inc()
        return estimate

    def _build_profile(self, plan) -> CostProfile:
        return raw_cost_profile(plan, self._cache)

    # -- calibration ---------------------------------------------------
    def observe(self, estimate: CostEstimate, actual_expansions: float) -> None:
        """Feed one executed query's actual work back into calibration."""
        err = self._calibration.observe(estimate.raw_expansions, actual_expansions)
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(self._metric("cost.calibration.observations")).inc()
            metrics.gauge(self._metric("cost.calibration.factor")).set(
                self._calibration.factor
            )
            metrics.histogram(
                self._metric("cost.calibration.abs_log_error"),
                buckets=(0.25, 0.5, 1.0, 2.0, 4.0),
            ).observe(abs(err))

    @property
    def calibration(self) -> EwmaCalibration:
        return self._calibration

    def snapshot(self) -> CalibrationState:
        return self._calibration.snapshot()

    def restore(self, state: CalibrationState) -> None:
        self._calibration.restore(state)

    # -- observability -------------------------------------------------
    def attach_metrics(self, registry, name: Optional[str] = None) -> None:
        """Publish ``cost.*`` metrics; ``name`` suffixes them per graph
        (the service catalog shares one registry across graphs)."""
        self._metrics = registry
        self._metrics_name = name

    def _metric(self, base: str) -> str:
        if self._metrics_name:
            return f"{base}.{self._metrics_name}"
        return base

    def describe(self) -> Dict[str, float]:
        """Health-endpoint summary of the calibration state."""
        state = self._calibration.snapshot()
        return {
            "calibration_factor": math.exp(state.log_bias),
            "observations": state.observations,
            "band": state.band,
        }


def derive_time_budget_ms(
    estimate: CostEstimate,
    work_unit_rate: float,
) -> float:
    """Auto-derived deadline for one query, in milliseconds.

    Uses the *upper* edge of the confidence band times a headroom factor:
    an auto budget should only ever truncate queries the model is
    confident are runaways, so under-estimation risk is absorbed twice
    (band, then headroom) before the ``DeadlineExceeded`` machinery can
    cut a legitimate query short.
    """
    if work_unit_rate <= 0:
        raise ValueError(f"work_unit_rate must be positive, got {work_unit_rate}")
    upper = max(estimate.upper, estimate.work_units)
    return max(DEFAULT_AUTO_BUDGET_FLOOR_MS, DEFAULT_AUTO_BUDGET_HEADROOM * upper / work_unit_rate)
