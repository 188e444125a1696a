"""Order statistics, cycle summaries and the regression-bound checker."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

MIN_BEYOND = 10
"""A percentile is reported only when this many samples lie beyond it."""


class TooFewSamples(ValueError):
    """The requested percentile would rest on fewer than ``MIN_BEYOND`` tail samples."""


def percentile(values: Iterable[float], p: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``).

    Raises :class:`TooFewSamples` unless at least ``min_beyond`` samples lie
    strictly beyond the returned rank: a p95 quoted from 96 samples is five
    observations, not a percentile.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise TooFewSamples(
            f"p{p:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it; "
            f"need {min_beyond}"
        )
    return ordered[rank - 1]


def per_op_median(cycles: Sequence[Sequence[float]]) -> List[float]:
    """Per-op median across cycles of one fixed op script.

    Every cycle executes the same ops in the same order, so column ``i`` is
    repeated measurements of op ``i``; its median drops a cycle in which the
    shared machine stalled without touching the op's own cost.
    """
    if not cycles or any(len(c) != len(cycles[0]) for c in cycles):
        raise ValueError("cycles must be non-empty and of equal length")
    return [statistics.median(column) for column in zip(*cycles)]


def cycle_spread(values: Sequence[float], better: str = "lower") -> float:
    """``|median - best| / best`` of one metric's per-cycle values (0 for one cycle).

    Noise on a shared box only ever slows, so the best cycle is the least
    disturbed one and the distance of the typical cycle from it says how
    disturbed the run was.
    """
    if len(values) < 2:
        return 0.0
    best = min(values) if better == "lower" else max(values)
    return abs(statistics.median(values) - best) / best if best else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the acceptance spread.

    Quartiles are ``statistics.quantiles(values, n=4)``, the definition the
    benchmark contract uses over ten runs with ten seeds.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def worse_by(better: str, base: float, value: float) -> float:
    """By what share of ``base`` is ``value`` worse (negative when better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not base:
        return 0.0
    delta = (value - base) / abs(base)
    return delta if better == "lower" else -delta


def check_bounds(
    benchmark: Dict[str, object],
    base: Dict[str, float],
    candidate: Dict[str, float],
) -> List[str]:
    """Regressions of ``candidate`` against ``base`` under ``BENCHMARK.json``.

    Both arguments map end-to-end metric name to value for one workload.
    Returns one human-readable line per metric that got worse by more than
    its bound (empty = no regression); a metric missing on either side is
    reported too, because a bound that cannot be checked is not met.
    """
    problems = []
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        if name not in base or name not in candidate:
            problems.append(f"{name}: missing from {'base' if name not in base else 'candidate'}")
            continue
        worse = worse_by(spec["better"], base[name], candidate[name])
        if worse > spec["bound"]:
            problems.append(
                f"{name}: {base[name]:.6g} -> {candidate[name]:.6g} {spec['unit']} "
                f"is {worse:.1%} worse (bound {spec['bound']:.0%})"
            )
    return problems
