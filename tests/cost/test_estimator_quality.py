"""Rank quality of the cost estimator against the engine's actual work.

Counts only, so deterministic on any box: Spearman rank correlation between
the raw model output and ``nodes_expanded`` over mixed-size query sets on five
registry stand-ins at bench scale, and the mean absolute log-error before and
after the EWMA calibration has seen the workload once. A constant estimate
scores rho = 0. wordnet's within-class variance is invisible to static
features, hence a floor below the pooled gate instead of hiding it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.cost.calibration import CalibrationState
from repro.datasets.registry import make_dataset
from repro.queries.generator import query_set

QUALITY_DATASETS = ["yeast", "human", "dblp", "wordnet", "epinion"]
QUALITY_MIX = [(3, 20, 13), (5, 25, 7), (8, 20, 11)]  # (edges, count, seed)
QUALITY_K = 40
NODE_BUDGET = 300_000

GATE_SPEARMAN_POOLED = 0.8
GATE_SPEARMAN_MEDIAN = 0.8
GATE_SPEARMAN_FLOOR = 0.6


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rho with average ranks for ties (no scipy dependency)."""

    def ranks(vals: Sequence[float]) -> List[float]:
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den if den else 0.0


def _abs_log_err(estimated: float, actual: float) -> float:
    return abs(math.log(actual + 1.0) - math.log(estimated + 1.0))


def estimator_quality() -> Dict[str, object]:
    """Spearman per dataset + pooled, and the two-pass calibration check."""
    rhos: List[float] = []
    pooled_est: List[float] = []
    pooled_act: List[float] = []
    errors = {1: [], 2: []}
    for name in QUALITY_DATASETS:
        graph = make_dataset(name, seed=0)  # bench scale
        cache = graph.index_cache()
        estimator = cache.cost_estimator()
        estimator.restore(CalibrationState())  # pristine: measure from scratch
        solver = DSQL(graph, config=DSQLConfig(k=QUALITY_K, node_budget=NODE_BUDGET))
        plans, raws, actuals = [], [], []
        for num_edges, count, seed in QUALITY_MIX:
            for query in query_set(graph, num_edges, count, seed=seed):
                plan = cache.plan_cache.get_or_compile(query, cache)
                raws.append(estimator.estimate(plan, k=QUALITY_K).raw_expansions)
                plans.append(plan)
                actuals.append(solver.query(query).stats.nodes_expanded)
        rhos.append(round(spearman(raws, actuals), 3))
        pooled_est.extend(raws)
        pooled_act.extend(actuals)
        # Two passes over the same workload. Pass 1 is the cold server:
        # every estimate comes from the pristine state, then the actuals
        # are fed back. Pass 2 replays the workload against what pass 1
        # learned (still observing, as the live service would).
        errors[1].extend(
            _abs_log_err(estimator.estimate(plan, k=QUALITY_K).work_units, actual)
            for plan, actual in zip(plans, actuals)
        )
        for plan, actual in zip(plans, actuals):
            estimator.observe(estimator.estimate(plan, k=QUALITY_K), actual)
        for plan, actual in zip(plans, actuals):
            estimate = estimator.estimate(plan, k=QUALITY_K)
            errors[2].append(_abs_log_err(estimate.work_units, actual))
            estimator.observe(estimate, actual)
    return {
        "spearman_pooled": round(spearman(pooled_est, pooled_act), 3),
        "spearman_median": sorted(rhos)[len(rhos) // 2],
        "spearman_min": min(rhos),
        "pass1_mean_abs_log_err": round(sum(errors[1]) / len(errors[1]), 3),
        "pass2_mean_abs_log_err": round(sum(errors[2]) / len(errors[2]), 3),
        "queries": len(pooled_act),
    }


def test_rank_quality_and_calibration():
    quality = estimator_quality()
    assert quality["queries"] == 325
    assert quality["spearman_pooled"] >= GATE_SPEARMAN_POOLED
    assert quality["spearman_median"] >= GATE_SPEARMAN_MEDIAN
    assert quality["spearman_min"] >= GATE_SPEARMAN_FLOOR
    assert quality["pass2_mean_abs_log_err"] < quality["pass1_mean_abs_log_err"]
