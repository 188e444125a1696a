"""Unit tests for :mod:`repro.datasets.labels`."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datasets.labels import (
    label_names,
    relabel_to_density,
    uniform_labels,
    zipf_labels,
)
from repro.datasets.registry import get_profile, make_dataset
from repro.exceptions import DatasetError


class TestLabelNames:
    def test_names(self):
        assert label_names(3) == ["L0", "L1", "L2"]

    def test_prefix(self):
        assert label_names(2, prefix="X") == ["X0", "X1"]

    def test_zero_rejected(self):
        with pytest.raises(DatasetError):
            label_names(0)


class TestUniform:
    def test_length_and_alphabet(self):
        labels = uniform_labels(500, 7, seed=1)
        assert len(labels) == 500
        assert set(labels) <= set(label_names(7))

    def test_roughly_uniform(self):
        labels = uniform_labels(7000, 7, seed=2)
        counts = Counter(labels)
        assert max(counts.values()) < 2 * min(counts.values())

    def test_seeded_determinism(self):
        assert uniform_labels(100, 5, seed=3) == uniform_labels(100, 5, seed=3)


class TestZipf:
    def test_skew_direction(self):
        labels = zipf_labels(5000, 10, exponent=1.2, seed=1)
        counts = Counter(labels)
        assert counts["L0"] > counts.get("L9", 0)

    def test_exponent_zero_is_uniformish(self):
        labels = zipf_labels(5000, 5, exponent=0.0, seed=1)
        counts = Counter(labels)
        assert max(counts.values()) < 1.5 * min(counts.values())

    def test_negative_exponent_rejected(self):
        with pytest.raises(DatasetError):
            zipf_labels(10, 5, exponent=-1)


class TestSkewed:
    """IMDB's skew (90% of vertices under 3 labels) is built by the
    registry: uniform labels over each partition of the two-mode graph."""

    def test_top_fraction_respected(self):
        graph = make_dataset("imdb", scale=0.002, seed=1)
        counts = Counter(graph.labels)
        top = sum(counts.get(f"L{i}", 0) for i in range(3))
        assert 0.85 <= top / graph.num_vertices <= 0.95
        assert len(counts) > 3

    def test_parameter_validation(self):
        assert get_profile("imdb").label_scheme == "skewed"
        with pytest.raises(DatasetError):
            make_dataset("imdb", scale=0)


class TestDensity:
    def test_density_achieved(self):
        labels = relabel_to_density(10000, 0.002, seed=1)
        assert len(set(labels)) <= 20
        assert len(labels) == 10000

    def test_minimum_one_label(self):
        labels = relabel_to_density(100, 1e-9, seed=1)
        assert len(set(labels)) == 1

    def test_invalid_density(self):
        with pytest.raises(DatasetError):
            relabel_to_density(100, 0.0)
