"""Unit tests for :mod:`repro.experiments.workloads`."""

from __future__ import annotations

import pytest

from repro.experiments.workloads import (
    DEFAULT_K,
    DEFAULT_QUERY_EDGES,
    FIG6_DATASETS,
    FIG8_DATASETS,
    FIG9_DATASETS,
    K_GRID,
    LABEL_DENSITY_GRID,
    QUERY_SIZE_GRID,
    batch_size,
    bench_scale_override,
)


class TestPaperGrids:
    def test_defaults_match_paper(self):
        assert DEFAULT_K == 40
        assert DEFAULT_QUERY_EDGES == 5

    def test_k_grid(self):
        assert K_GRID == [10, 20, 30, 40, 50]

    def test_query_size_grid(self):
        assert QUERY_SIZE_GRID == list(range(1, 11))

    def test_label_density_grid_range(self):
        assert LABEL_DENSITY_GRID[0] == pytest.approx(0.05e-3)
        assert LABEL_DENSITY_GRID[-1] == pytest.approx(0.2e-3)

    def test_figure_panels(self):
        assert FIG6_DATASETS == ["wordnet", "epinion", "dblp", "youtube", "dbpedia", "imdb"]
        assert FIG8_DATASETS == ["yeast", "human", "uspatent"]
        assert FIG9_DATASETS == ["youtube", "human"]


class TestEnvOverrides:
    def test_batch_size_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUERIES", raising=False)
        assert batch_size(7) == 7

    def test_batch_size_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERIES", "123")
        assert batch_size(7) == 123

    def test_batch_size_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERIES", "0")
        with pytest.raises(ValueError):
            batch_size()

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_scale_override() == 1.0

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert bench_scale_override() == 2.5

    def test_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale_override()
