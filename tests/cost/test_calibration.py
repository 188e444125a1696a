"""Unit tests for EWMA calibration state and table persistence."""

from __future__ import annotations

import math

import pytest

from repro.cost import (
    CalibrationState,
    CostEstimate,
    EwmaCalibration,
    load_calibration,
    save_calibration,
)
from tests.conftest import disk_full_on_write


def _estimate(raw: float, factor: float = 1.0, band: float = 8.0) -> CostEstimate:
    point = raw * factor
    return CostEstimate(
        work_units=point,
        raw_expansions=raw,
        lower=point / band,
        upper=point * band,
        k=10,
        per_depth=(1.0,),
        calibration_factor=factor,
        observations=0,
    )


class TestObserve:
    def test_first_observation_seeds_bias(self):
        cal = EwmaCalibration()
        assert cal.factor == pytest.approx(1.0)
        cal.observe(raw_estimate=100.0, actual=300.0)
        # Seeded directly (no EWMA blend on the first sample).
        assert cal.factor == pytest.approx(301.0 / 101.0, rel=1e-6)
        assert cal.observations == 1

    def test_factor_converges_to_ratio(self):
        cal = EwmaCalibration()
        for _ in range(50):
            cal.observe(raw_estimate=100.0, actual=250.0)
        assert cal.factor == pytest.approx(251.0 / 101.0, rel=1e-3)

    def test_band_tightens_with_consistent_observations(self):
        cal = EwmaCalibration()
        wide = cal.band
        for _ in range(30):
            cal.observe(raw_estimate=100.0, actual=100.0)
        assert cal.band < wide
        # Perfectly consistent feedback drives the band to its floor.
        assert cal.band == pytest.approx(2.0)

    def test_band_widens_after_gross_misprediction(self):
        cal = EwmaCalibration()
        for _ in range(30):
            cal.observe(raw_estimate=100.0, actual=100.0)
        tight = cal.band
        for _ in range(10):
            cal.observe(raw_estimate=1.0, actual=100000.0)
        assert cal.band > tight

    def test_returns_signed_log_error(self):
        cal = EwmaCalibration()
        err = cal.observe(raw_estimate=99.0, actual=0.0)
        assert err == pytest.approx(math.log(1.0) - math.log(100.0))

    @pytest.mark.parametrize(
        "raw,actual",
        [
            (float("nan"), 10.0),
            (10.0, float("nan")),
            (float("inf"), 10.0),
            (10.0, float("inf")),
            (-1.0, 10.0),
            (10.0, -1.0),
        ],
    )
    def test_pathological_inputs_ignored(self, raw, actual):
        cal = EwmaCalibration()
        assert cal.observe(raw, actual) == 0.0
        assert cal.observations == 0
        assert cal.factor == pytest.approx(1.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            EwmaCalibration(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaCalibration(alpha=1.5)


class TestSnapshotRestore:
    def test_roundtrip(self):
        cal = EwmaCalibration()
        for actual in (10.0, 30.0, 20.0):
            cal.observe(raw_estimate=15.0, actual=actual)
        clone = EwmaCalibration()
        clone.restore(cal.snapshot())
        assert clone.factor == pytest.approx(cal.factor)
        assert clone.band == pytest.approx(cal.band)
        assert clone.observations == cal.observations

    def test_snapshot_is_detached(self):
        cal = EwmaCalibration()
        cal.observe(100.0, 200.0)
        state = cal.snapshot()
        cal.observe(100.0, 9000.0)
        assert cal.snapshot().log_bias != state.log_bias

    def test_from_dict_sanitizes(self):
        state = CalibrationState.from_dict(
            {"log_bias": float("nan"), "abs_log_err": -3.0, "observations": -2}
        )
        assert state.log_bias == 0.0
        assert state.abs_log_err > 0.0
        assert state.observations == 0


class TestTablePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "calibration.json"
        cal = EwmaCalibration()
        cal.observe(100.0, 321.0)
        save_calibration(path, {"yeast": cal.snapshot(), "human": CalibrationState()})
        table = load_calibration(path)
        assert set(table) == {"yeast", "human"}
        assert table["yeast"].log_bias == pytest.approx(cal.snapshot().log_bias)
        assert table["yeast"].observations == 1
        assert table["human"].observations == 0

    def test_a_failed_save_leaves_the_previous_file_whole(self, tmp_path, monkeypatch):
        """A write that dies after its file is opened (a kill, a full disk)
        must not leave the table truncated: it still loads whole."""
        path = tmp_path / "calibration.json"
        cal = EwmaCalibration()
        cal.observe(100.0, 321.0)
        save_calibration(path, {"yeast": cal.snapshot()})
        before = path.read_bytes()
        with disk_full_on_write(monkeypatch):
            with pytest.raises(OSError):
                save_calibration(path, {"human": CalibrationState()})
        assert path.read_bytes() == before
        assert load_calibration(path) == {"yeast": cal.snapshot()}

    def test_missing_file_returns_none(self, tmp_path):
        assert load_calibration(tmp_path / "nope.json") is None

    def test_corrupt_file_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_calibration(path) is None

    def test_wrong_version_returns_none(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 99, "graphs": {}}', encoding="utf-8")
        assert load_calibration(path) is None

    def test_non_dict_entries_skipped(self, tmp_path):
        """A non-dict entry, or one whose fields do not parse, is skipped;
        the rest of the table still loads."""
        path = tmp_path / "mixed.json"
        for bad in (
            "7",
            '{"log_bias": "x"}',
            '{"log_bias": null}',
            '{"abs_log_err": [1]}',
            '{"observations": "3.5"}',
            '{"observations": 1e400}',
        ):
            path.write_text(
                f'{{"version": 1, "graphs": {{"ok": {{"observations": 3}}, "bad": {bad}}}}}',
                encoding="utf-8",
            )
            table = load_calibration(path)
            assert set(table) == {"ok"}, bad
            assert table["ok"].observations == 3


class TestEstimatorCalibrationFlow:
    def test_observe_shifts_future_estimates(self):
        # Synthetic check that factor application is multiplicative on the
        # raw model output: estimator-level behavior is covered end-to-end
        # in tests/cost/test_estimator.py; this pins the algebra.
        cal = EwmaCalibration()
        raw = 100.0
        cal.observe(raw, 400.0)
        estimate = _estimate(raw, factor=cal.factor, band=cal.band)
        assert estimate.work_units == pytest.approx(raw * cal.factor)
        assert estimate.lower <= estimate.work_units <= estimate.upper
