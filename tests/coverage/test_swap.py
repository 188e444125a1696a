"""Unit tests for :mod:`repro.coverage.swap` (the streaming family)."""

from __future__ import annotations

import random

import pytest

from repro.coverage.core import CoverageTracker
from repro.coverage.swap import (
    Swap0,
    Swap1,
    Swap2,
    SwapA,
    SwapAlpha,
    swap_stream,
)
from repro.exceptions import ConfigError

from tests.conftest import brute_force_optimal_coverage

ALL_CONDITIONS = [Swap0(), Swap1(), Swap2(), SwapA(), SwapAlpha(alpha=1.0)]


def random_stream(seed: int, n: int = 30, universe: int = 25, size: int = 4):
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(universe), size)) for _ in range(n)]


class TestSwapStreamMechanics:
    def test_k_validation(self):
        with pytest.raises(ConfigError):
            swap_stream([], 0, Swap0())

    def test_oversized_initial_rejected(self):
        with pytest.raises(ConfigError, match="initial"):
            swap_stream([], 1, Swap0(), initial=[{1}, {2}])

    def test_collection_capacity_respected(self):
        run = swap_stream(random_stream(1), 5, SwapAlpha())
        assert len(run.members) <= 5

    def test_progressive_init_skips_zero_benefit(self):
        stream = [{1, 2}, {1, 2}, {3, 4}]
        run = swap_stream(stream, 3, SwapAlpha(), progressive_init=True)
        assert len(run.members) == 2  # the duplicate was not admitted

    def test_plain_init_takes_first_k(self):
        stream = [{1, 2}, {1, 2}, {3, 4}]
        run = swap_stream(stream, 3, SwapAlpha(), progressive_init=False)
        assert len(run.members) == 3

    def test_initial_collection_used(self):
        run = swap_stream([{9, 10}], 2, SwapAlpha(), initial=[{1, 2}])
        assert frozenset({1, 2}) in run.members

    def test_statistics_counted(self):
        stream = random_stream(2)
        run = swap_stream(stream, 3, SwapAlpha())
        assert run.examined == len(stream)
        assert run.admitted >= min(3, len(stream)) - 2  # some skipped as dupes
        assert run.swaps >= 0


class TestCoverageNeverDecreases:
    """All conditions only swap when coverage does not drop."""

    @pytest.mark.parametrize("condition", ALL_CONDITIONS, ids=lambda c: c.name)
    def test_final_at_least_initial_k(self, condition):
        for seed in range(5):
            stream = random_stream(seed)
            baseline = swap_stream(stream[: 4], 4, condition, progressive_init=False)
            run = swap_stream(stream, 4, condition, progressive_init=False)
            assert run.coverage >= baseline.coverage, (condition.name, seed)


class TestGuarantees:
    @pytest.mark.parametrize(
        "condition", [Swap1(), Swap2(), SwapA(), SwapAlpha(alpha=1.0)],
        ids=lambda c: c.name,
    )
    def test_quarter_guarantee_on_random_instances(self, condition):
        for seed in range(10):
            stream = random_stream(seed, n=25, universe=20, size=4)
            k = 4
            run = swap_stream(stream, k, condition)
            opt = brute_force_optimal_coverage(stream, k)
            assert run.coverage >= 0.25 * opt, (condition.name, seed)

    def test_theorem6_bound_with_progressive_init(self):
        """SWAPα(α=1) with progressive init: >= 0.25*(1 + max(1/k, 1/q))."""
        q, k = 4, 4
        for seed in range(10):
            stream = random_stream(seed, n=30, universe=24, size=q)
            run = swap_stream(stream, k, SwapAlpha(alpha=1.0))
            opt = brute_force_optimal_coverage(stream, k)
            bound = 0.25 * (1 + max(1 / k, 1 / q))
            assert run.coverage >= bound * opt - 1e-9, seed


class TestConditionSemantics:
    def test_swap0_any_improvement(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        assert Swap0().propose(t, frozenset({5, 6, 1, 3}), 2) is not None

    def test_swap0_rejects_no_improvement(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        assert Swap0().propose(t, frozenset({1, 3}), 2) is None

    def test_swap1_twice_loss(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        # Every member has loss 2; benefit 4 >= 2*2 triggers.
        assert Swap1().propose(t, frozenset({5, 6, 7, 8}), 2) is not None
        # Benefit 2 with L+ = 2 everywhere (nothing re-covered): 2 < 4.
        assert Swap1().propose(t, frozenset({5, 6}), 2) is None

    def test_swap1_uses_loss_plus(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        # h re-covers {1,2}: L+ of that member is 0, so benefit 1 suffices.
        assert Swap1().propose(t, frozenset({1, 2, 9}), 2) is not None

    def test_swap2_multiplicative_threshold(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        k = 2
        # current = 4; need after*k >= (k+1)*current -> after >= 6.
        assert Swap2().propose(t, frozenset({5, 6, 7, 8}), k) is not None
        assert Swap2().propose(t, frozenset({5, 1, 3, 2}), k) is None

    def test_swap_alpha_threshold(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        # min loss = 2; alpha=1 needs benefit >= 4.
        assert SwapAlpha(alpha=1.0).propose(t, frozenset({5, 6, 7, 8}), 2) is not None
        assert SwapAlpha(alpha=1.0).propose(t, frozenset({5, 6, 7, 1}), 2) is None
        # alpha=0 needs benefit >= 2.
        assert SwapAlpha(alpha=0.0).propose(t, frozenset({5, 6, 1, 3}), 2) is not None

    def test_swap_alpha_negative_rejected(self):
        with pytest.raises(ConfigError):
            SwapAlpha(alpha=-0.5)

    def test_swap_a_weights(self):
        # weight 1.0 behaves like SWAP1's condition on the margin.
        t = CoverageTracker([{1, 2}, {3, 4}])
        h = frozenset({5, 6, 7, 8})
        assert SwapA(hybrid_weight=1.0).propose(t, h, 2) is not None
        assert SwapA(hybrid_weight=0.0).propose(t, h, 2) is not None

    def test_zero_benefit_never_swaps(self):
        t = CoverageTracker([{1, 2}, {3, 4}])
        h = frozenset({1, 3})
        for condition in ALL_CONDITIONS:
            assert condition.propose(t, h, 2) is None, condition.name
