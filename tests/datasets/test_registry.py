"""Unit tests for :mod:`repro.datasets.registry`."""

from __future__ import annotations

import pytest

from repro.datasets.registry import (
    dataset_names,
    get_profile,
    make_dataset,
)
from repro.exceptions import DatasetError
from repro.graph.statistics import compute_statistics, label_skew

PAPER_TABLE1 = {
    # name: (|V|, |E|, avg degree) straight from Table 1.
    "yeast": (3101, 12519, 8.07),
    "human": (4675, 86282, 36.92),
    "wordnet": (76854, 213308, 5.55),
    "epinion": (75879, 405741, 10.69),
    "dblp": (317080, 1049866, 6.62),
    "youtube": (1100000, 2900000, 5.26),
    "dbpedia": (809597, 3720000, 9.19),
    "imdb": (4490000, 7490000, 3.34),
    "uspatent": (3770000, 16500000, 8.75),
}


class TestProfiles:
    def test_all_nine_datasets_present(self):
        assert set(dataset_names()) == set(PAPER_TABLE1)

    def test_profiles_match_table1(self):
        for name, (v, e, deg) in PAPER_TABLE1.items():
            p = get_profile(name)
            assert p.num_vertices == v, name
            assert p.num_edges == e, name
            assert p.avg_degree == pytest.approx(deg), name

    def test_unknown_profile(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            get_profile("nope")

    def test_scaled_vertices_floor(self):
        p = get_profile("yeast")
        assert p.scaled_vertices(1e-9) == 50

    def test_scaled_labels_full_scale(self):
        p = get_profile("yeast")
        assert p.scaled_labels(1.0) == p.num_labels
        assert p.scaled_labels(2.0) == p.num_labels

    def test_scaled_labels_shrink(self):
        p = get_profile("youtube")
        assert 2 <= p.scaled_labels(0.01) < p.num_labels


class TestMakeDataset:
    @pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
    def test_bench_scale_builds_with_matching_density(self, name):
        g = make_dataset(name)
        stats = compute_statistics(g)
        profile = get_profile(name)
        assert stats.num_vertices >= 50
        assert stats.average_degree == pytest.approx(profile.avg_degree, rel=0.3)

    def test_full_scale_yeast_matches_table1(self):
        g = make_dataset("yeast", scale=1.0)
        stats = compute_statistics(g)
        assert stats.num_vertices == 3101
        assert stats.average_degree == pytest.approx(8.07, rel=0.1)
        assert stats.num_labels == 31

    def test_imdb_label_skew(self):
        g = make_dataset("imdb", scale=0.005)
        assert label_skew(g, top=3) > 0.8

    def test_imdb_is_bipartite_two_mode(self):
        g = make_dataset("imdb", scale=0.005)
        person_labels = {"L0", "L1", "L2"}
        for u, v in g.edges():
            in_person = (g.label(u) in person_labels, g.label(v) in person_labels)
            assert in_person[0] != in_person[1], (u, v)

    def test_label_override(self):
        g = make_dataset("dblp", scale=0.01, num_labels=5)
        assert len(g.label_set()) <= 5

    def test_seeded_determinism(self):
        a = make_dataset("yeast", seed=7)
        b = make_dataset("yeast", seed=7)
        assert list(a.labels) == list(b.labels)
        assert set(a.edges()) == set(b.edges())

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            make_dataset("yeast", scale=-1)

    def test_name_tags_scale(self):
        assert make_dataset("yeast", scale=0.5).name == "yeast@0.5"
