"""Unit tests for :mod:`repro.core.config`."""

from __future__ import annotations

import pytest

from repro.core.config import VARIANTS, DSQLConfig, variant_config
from repro.exceptions import ConfigError


class TestValidation:
    def test_k_positive(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=0)

    def test_alpha_nonnegative(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=1, alpha=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["alpha", "time_budget_ms", "work_unit_rate"])
    def test_non_finite_numbers_rejected(self, field, bad):
        # NaN passes ``x < 0`` and ``x <= 0`` alike; a NaN budget disarms the deadline.
        with pytest.raises(ConfigError, match=field):
            DSQLConfig(k=1, **{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_vertex_weight_rejected(self, bad):
        with pytest.raises(ConfigError, match="vertex_weights"):
            DSQLConfig(k=1, objective="weighted-vertex", vertex_weights={0: bad})

    def test_ratio_target_range(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=1, phase2_ratio_target=0.0)
        with pytest.raises(ConfigError):
            DSQLConfig(k=1, phase2_ratio_target=1.5)

    def test_node_budget_positive(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=1, node_budget=0)
        assert DSQLConfig(k=1, node_budget=None).node_budget is None

    def test_relaxed_requires_bad_vertex(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=1, relaxed_bad_vertices=True, bad_vertex_skipping=False)

    def test_defaults_are_full_dsql(self):
        c = DSQLConfig(k=3)
        assert c.localized_search
        assert c.single_embedding_mode
        assert c.conflict_skipping
        assert c.bad_vertex_skipping
        assert not c.relaxed_bad_vertices
        assert c.run_phase2


class TestVariants:
    def test_dsql0_flags(self):
        c = DSQLConfig.dsql0(5)
        assert c.localized_search
        assert not (c.single_embedding_mode or c.conflict_skipping or c.bad_vertex_skipping)

    def test_dsql1_flags(self):
        c = DSQLConfig.dsql1(5)
        assert c.single_embedding_mode and not c.conflict_skipping

    def test_dsql2_flags(self):
        c = DSQLConfig.dsql2(5)
        assert c.conflict_skipping and not c.single_embedding_mode
        assert not c.bad_vertex_skipping

    def test_dsql3_flags(self):
        c = DSQLConfig.dsql3(5)
        assert c.conflict_skipping and c.bad_vertex_skipping
        assert not c.single_embedding_mode

    def test_full_flags(self):
        c = DSQLConfig.full(5)
        assert c.single_embedding_mode and c.conflict_skipping and c.bad_vertex_skipping

    def test_dsqlh_flags(self):
        c = DSQLConfig.dsqlh(5)
        assert c.relaxed_bad_vertices

    def test_variant_config_lookup(self):
        for name in VARIANTS:
            assert variant_config(name, 7).k == 7

    def test_variant_config_unknown(self):
        with pytest.raises(ConfigError, match="unknown DSQL variant"):
            variant_config("DSQL99", 1)

    def test_variant_overrides_forwarded(self):
        c = variant_config("DSQL", 3, run_phase2=False, seed=9)
        assert not c.run_phase2
        assert c.seed == 9

    def test_with_k(self):
        c = DSQLConfig(k=3, alpha=0.5)
        c2 = c.with_k(8)
        assert c2.k == 8 and c2.alpha == 0.5 and c.k == 3
