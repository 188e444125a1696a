"""repro.cost — cardinality/cost estimation for diversified subgraph queries.

The service front admits by *request count*, but one dense-pool DSQ query
costs ~10000x a cheap one; pricing admission, deadlines, and quotas in a
common currency needs a per-query **cost estimate** that is available
*before* the search runs. Everything such an estimate needs is already
computed and cached on the compiled :class:`~repro.indexes.plans.QueryPlan`
— candidate-pool sizes, the search order, the per-depth backward-neighbor
tuples — so estimation is a cheap fold over the plan, memoized on the plan
itself (free after compile).

Pieces:

* :class:`CostEstimator` / :class:`CostEstimate`
  (:mod:`repro.cost.estimator`) — color-coding-style expected per-depth
  frontier sizes ("Subgraph Counting: Color Coding Beyond Trees",
  PAPERS.md): a product of per-join selectivities under a
  configuration-model edge probability, with a per-depth frontier cap.
  Returns estimated expansions (= *work units*, the admission currency)
  plus a multiplicative confidence band.
* :class:`EwmaCalibration` (:mod:`repro.cost.calibration`) — after every
  executed query the actual ``SearchStats.nodes_expanded`` feeds a
  per-graph EWMA over the log estimation error, so the estimator
  self-corrects online; the table persists/restores with the service
  catalog (``save_calibration`` / ``load_calibration``).
* :func:`derive_time_budget_ms` — auto-derived deadlines: when
  ``DSQLConfig.time_budget_ms`` is unset and ``auto_time_budget`` is on,
  the estimate and a configurable unit-rate bound the query via the
  existing ``DeadlineExceeded`` machinery.

The work-unit *admission* seam built on these estimates lives with the
service (:mod:`repro.service.admission`); ``docs/cost.md`` documents the
math, the calibration lifecycle, and the tuning knobs.
"""

from repro.cost.calibration import (
    CalibrationState,
    EwmaCalibration,
    load_calibration,
    save_calibration,
)
from repro.cost.estimator import (
    DEFAULT_AUTO_BUDGET_FLOOR_MS,
    DEFAULT_K,
    DEFAULT_WORK_UNIT_RATE,
    CostEstimate,
    CostEstimator,
    derive_time_budget_ms,
    raw_cost_profile,
    raw_expansions,
)

__all__ = [
    "CostEstimate",
    "CostEstimator",
    "CalibrationState",
    "EwmaCalibration",
    "raw_cost_profile",
    "raw_expansions",
    "derive_time_budget_ms",
    "save_calibration",
    "load_calibration",
    "DEFAULT_K",
    "DEFAULT_WORK_UNIT_RATE",
    "DEFAULT_AUTO_BUDGET_FLOOR_MS",
]
