"""Unit tests of the harness's statistics (``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import stats  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        assert stats.percentile(values, 50) == 100
        assert stats.percentile(values, 95) == 190
        assert stats.percentile(reversed(values), 95) == 190  # order-independent

    def test_refuses_a_thin_tail(self):
        # p95 of 199 samples is rank 190: nine samples beyond it, one short.
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(range(199), 95)
        assert stats.percentile(range(200), 95) == 189

    def test_the_service_bench_p99_would_be_refused(self):
        # BENCH_service.json quoted a p99 from 96 samples.
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(range(96), 99)

    def test_min_beyond_is_adjustable_for_smoke_runs(self):
        assert stats.percentile([3.0, 1.0, 2.0], 95, min_beyond=0) == 3.0

    @pytest.mark.parametrize("p", [0, -1, 101])
    def test_rejects_bad_percentiles(self, p):
        with pytest.raises(ValueError):
            stats.percentile(range(100), p)

    def test_rejects_no_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile([], 50, min_beyond=0)


class TestCycles:
    def test_per_op_median_drops_a_stalled_cycle(self):
        cycles = [[1.0, 2.0, 3.0], [1.1, 2.1, 30.0], [0.9, 1.9, 3.1]]
        assert stats.per_op_median(cycles) == [1.0, 2.0, 3.1]

    def test_per_op_median_needs_equal_cycles(self):
        with pytest.raises(ValueError):
            stats.per_op_median([[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            stats.per_op_median([])

    def test_cycle_spread_is_median_from_best(self):
        assert stats.cycle_spread([10.0]) == 0.0
        assert stats.cycle_spread([10.0, 11.0, 20.0]) == pytest.approx(0.1)
        # For a higher-is-better metric the best cycle is the largest.
        assert stats.cycle_spread([100.0, 90.0, 50.0], "higher") == pytest.approx(0.1)

    def test_quartile_spread_matches_the_contract_definition(self):
        import statistics

        values = [9.0, 10.0, 10.5, 11.0, 12.0, 9.5, 10.2, 10.8, 10.1, 9.9]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert stats.quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values)
        )


BENCHMARK = {
    "end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}


class TestBounds:
    def test_worse_by_follows_direction(self):
        assert stats.worse_by("lower", 10.0, 11.0) == pytest.approx(0.1)
        assert stats.worse_by("higher", 10.0, 11.0) == pytest.approx(-0.1)
        assert stats.worse_by("higher", 10.0, 9.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            stats.worse_by("sideways", 1.0, 1.0)

    def test_within_bounds_is_silent(self):
        base = {"op_ms_p50": 10.0, "ops_per_s": 100.0}
        assert stats.check_bounds(BENCHMARK, base, {"op_ms_p50": 10.9, "ops_per_s": 91.0}) == []
        # Getting better is never a regression, however far.
        assert stats.check_bounds(BENCHMARK, base, {"op_ms_p50": 1.0, "ops_per_s": 900.0}) == []

    def test_reports_each_regression(self):
        base = {"op_ms_p50": 10.0, "ops_per_s": 100.0}
        problems = stats.check_bounds(BENCHMARK, base, {"op_ms_p50": 11.5, "ops_per_s": 80.0})
        assert len(problems) == 2
        assert problems[0].startswith("op_ms_p50") and "15.0% worse" in problems[0]
        assert problems[1].startswith("ops_per_s") and "20.0% worse" in problems[1]

    def test_a_missing_metric_is_a_problem(self):
        problems = stats.check_bounds(BENCHMARK, {"op_ms_p50": 10.0}, {"op_ms_p50": 10.0})
        assert problems == ["ops_per_s: missing from base"]
