"""Approximation-bound arithmetic (Theorems 3–6 and the §6.1.2 schedule).

Pure functions over the paper's closed forms, used both by the algorithms
(the multi-scan α schedule) and by tests that assert the published constants
(α/γ progression 1, 0.25, 0.5, 1/3, ... converging to 0.5).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import ConfigError

GAMMA_FIXED_POINT = 0.5
"""Limit of the multi-scan guarantee sequence (Appendix A.4)."""


def next_alpha(gamma_prev: float) -> float:
    """Equation (3): ``alpha_t = 1 - 2 * gamma_{t-1}`` (requires γ < 0.5)."""
    if not 0.0 <= gamma_prev < 0.5:
        raise ConfigError(f"gamma must be in [0, 0.5) for the schedule, got {gamma_prev}")
    return 1.0 - 2.0 * gamma_prev


def next_gamma(gamma_prev: float) -> float:
    """Equation (4): ``gamma_t = 0.25 / (1 - gamma_{t-1})``."""
    if not 0.0 <= gamma_prev < 1.0:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma_prev}")
    return 0.25 / (1.0 - gamma_prev)


def alpha_gamma_schedule(num_scans: int, gamma0: float = 0.0) -> List[Tuple[float, float]]:
    """The first ``num_scans`` pairs ``(alpha_t, gamma_t)`` of the §6.1.2 schedule.

    Starting from ``gamma0 = 0``: (1, 0.25), (0.5, 1/3), (1/3, 3/8),
    (0.25, 0.4), ... The γ sequence increases toward the 0.5 fixed point.
    """
    if num_scans < 0:
        raise ConfigError(f"num_scans must be >= 0, got {num_scans}")
    schedule: List[Tuple[float, float]] = []
    gamma = gamma0
    for _ in range(num_scans):
        if gamma >= 0.5:
            break  # the guarantee cannot be improved further by scanning
        alpha = next_alpha(gamma)
        gamma = next_gamma(gamma)
        schedule.append((alpha, gamma))
    return schedule


def single_scan_ratio(alpha: float, gamma0: float) -> float:
    """Inequality (6): lower bound ``(alpha + gamma) / (alpha + 1)^2``."""
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    return (alpha + gamma0) / (alpha + 1.0) ** 2


def phase1_ratio_bound(q: int, level: int, k: int) -> float:
    """Theorem 3: DSQL-P1 stopping at level ``i`` guarantees
    ``(q - i)/q + i/(k*q)`` (tight)."""
    if q < 1 or k < 1 or not 0 <= level < q:
        raise ConfigError(f"invalid (q={q}, level={level}, k={k})")
    return (q - level) / q + level / (k * q)


def overall_ratio_bound(k: int, q: int) -> float:
    """Theorem 4 / 6: ``max(0.25 * (1 + 1/k), 0.25 * (1 + 1/q))``."""
    if k < 1 or q < 1:
        raise ConfigError(f"k and q must be >= 1, got k={k}, q={q}")
    return max(0.25 * (1.0 + 1.0 / k), 0.25 * (1.0 + 1.0 / q))


def greedy_ratio_bound() -> float:
    """GreedyDSQ's classic ``1 - 1/e`` guarantee."""
    import math

    return 1.0 - 1.0 / math.e


def coverage_upper_bound(k: int, q: int) -> int:
    """``|C(OPT)| <= k * q`` — the MAX fallback of Section 7.3.

    This is the *vertex*-objective bound; an
    :class:`~repro.coverage.objectives.Objective` states its own as
    ``max_coverage(k)``.
    """
    if k < 1 or q < 1:
        raise ConfigError(f"k and q must be >= 1, got k={k}, q={q}")
    return k * q
