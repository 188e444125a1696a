"""Unit tests for :mod:`repro.datasets.synthetic`."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import (
    bipartite_affiliation_graph,
    configuration_graph,
    lognormal_graph,
    power_law_graph,
)
from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph


def avg_degree(num_vertices, edges):
    return 2 * len(edges) / num_vertices


class TestConfigurationGraph:
    def test_simple_graph(self):
        edges = configuration_graph([2, 2, 2, 2], seed=1)
        g = LabeledGraph(["x"] * 4, edges)
        assert g.num_edges == len(edges)
        assert all(u != v for u, v in edges)

    def test_negative_degree_rejected(self):
        with pytest.raises(DatasetError):
            configuration_graph([1, -1])

    def test_seeded_determinism(self):
        assert configuration_graph([3] * 10, seed=5) == configuration_graph([3] * 10, seed=5)


class TestPowerLaw:
    def test_average_degree_close(self):
        edges = power_law_graph(3000, 8.0, seed=1)
        assert avg_degree(3000, edges) == pytest.approx(8.0, rel=0.15)

    def test_heavy_tail_exists(self):
        edges = power_law_graph(3000, 6.0, seed=2)
        g = LabeledGraph(["x"] * 3000, edges)
        degrees = g.degree_sequence()
        assert max(degrees) > 5 * (sum(degrees) / len(degrees))

    def test_validation(self):
        with pytest.raises(DatasetError):
            power_law_graph(1, 3.0)
        with pytest.raises(DatasetError):
            power_law_graph(10, -1.0)
        with pytest.raises(DatasetError):
            power_law_graph(10, 3.0, exponent=1.0)


class TestLognormal:
    def test_average_degree_close(self):
        edges = lognormal_graph(3000, 10.0, seed=3)
        assert avg_degree(3000, edges) == pytest.approx(10.0, rel=0.15)

    def test_milder_tail_than_power_law(self):
        pl = LabeledGraph(["x"] * 3000, power_law_graph(3000, 8.0, seed=4))
        ln = LabeledGraph(["x"] * 3000, lognormal_graph(3000, 8.0, seed=4))
        assert max(ln.degree_sequence()) < max(pl.degree_sequence())

    def test_validation(self):
        with pytest.raises(DatasetError):
            lognormal_graph(1, 3.0)


class TestBipartite:
    def test_two_mode_structure(self):
        total, edges = bipartite_affiliation_graph(300, 100, 3.0, seed=1)
        assert total == 400
        for p, w in edges:
            assert p < 300 <= w

    def test_average_degree_close(self):
        total, edges = bipartite_affiliation_graph(3000, 1000, 3.3, seed=2)
        assert avg_degree(total, edges) == pytest.approx(3.3, rel=0.2)

    def test_validation(self):
        with pytest.raises(DatasetError):
            bipartite_affiliation_graph(0, 5, 3.0)


class TestErdosRenyi:
    """A near-uniform random graph is a constant degree sequence through
    the configuration model."""

    def test_edge_count(self):
        edges = configuration_graph([6] * 200, seed=1)
        assert 0.9 * 600 <= len(edges) <= 600
        assert avg_degree(200, edges) == pytest.approx(6.0, rel=0.1)

    def test_too_dense_rejected(self):
        # Not rejected: a sequence denser than any simple graph on its
        # vertices keeps each pair once and drops every self-loop.
        edges = configuration_graph([12] * 5, seed=2)
        assert len(set(edges)) == len(edges) <= 10
        assert all(u < v < 5 for u, v in edges)
