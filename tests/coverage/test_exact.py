"""Unit tests for :mod:`repro.coverage.exact`."""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.coverage
from repro.coverage.core import coverage
from repro.coverage.exact import optimal_coverage
from repro.coverage.objectives import OBJECTIVE_NAMES, make_objective
from repro.exceptions import ConfigError

from tests.conftest import (
    brute_force_optimal_coverage,
    connected_query_from,
    random_labeled_graph,
)


class TestOptimalCoverage:
    def test_trivial(self):
        cover, sel = optimal_coverage([{1, 2}, {3}], 2)
        assert cover == 3
        assert len(sel) <= 2

    def test_k_zero(self):
        assert optimal_coverage([{1}], 0) == (0, [])

    def test_empty_input(self):
        assert optimal_coverage([], 3) == (0, [])

    def test_matches_brute_force_random(self):
        rng = random.Random(11)
        for trial in range(15):
            sets = [frozenset(rng.sample(range(14), 3)) for _ in range(10)]
            for k in (1, 2, 3):
                got, sel = optimal_coverage(sets, k)
                expected = brute_force_optimal_coverage(sets, k)
                assert got == expected, (trial, k)
                assert coverage(sel) == got
                assert len(sel) <= k

    def test_duplicates_and_subsets_pruned(self):
        sets = [{1, 2, 3}, {1, 2, 3}, {1, 2}, {4}]
        cover, sel = optimal_coverage(sets, 2)
        assert cover == 4

    def test_size_guard(self):
        sets = [frozenset({i}) for i in range(50)]
        with pytest.raises(ConfigError, match="raise max_embeddings"):
            optimal_coverage(sets, 3, max_embeddings=10)

    def test_size_guard_can_be_raised(self):
        sets = [frozenset({i}) for i in range(50)]
        cover, _ = optimal_coverage(sets, 3, max_embeddings=100)
        assert cover == 3

    def test_node_guard(self):
        rng = random.Random(3)
        sets = [frozenset(rng.sample(range(30), 4)) for _ in range(40)]
        with pytest.raises(ConfigError, match="exceeded 5 nodes"):
            optimal_coverage(sets, 6, max_nodes=5)


class TestExactRatio:
    """A true ratio is a solution's coverage over ``optimal_coverage(...)[0]``;
    the caller divides (the package ships no ratio helper)."""

    def test_optimal_solution_ratio_one(self):
        sets = [{1, 2}, {3, 4}]
        assert coverage(sets) / optimal_coverage(sets, 2)[0] == 1.0

    def test_partial_solution(self):
        sets = [{1, 2}, {3, 4}]
        assert coverage([{1, 2}]) / optimal_coverage(sets, 2)[0] == 0.5

    def test_empty_solution(self):
        assert coverage([]) / optimal_coverage([{1}], 1)[0] == 0.0

    def test_empty_universe(self):
        assert optimal_coverage([], 1) == (0, [])
        assert not hasattr(repro.coverage, "exact_ratio")


def milp_optimum(sets, k, weight) -> float:
    """Max coverage as a MILP: a binary ``x`` per set and ``y`` per element,
    ``y_e <= sum of x over the sets holding e``, ``sum x <= k``, maximize
    ``sum w * y``."""
    optimize = pytest.importorskip("scipy.optimize")
    elements = list(set().union(*sets))
    n, m = len(sets), len(elements)
    rows = np.zeros((m + 1, n + m))
    for j, elem in enumerate(elements):
        rows[j, n + j] = 1
        rows[j, [i for i, s in enumerate(sets) if elem in s]] = -1
    rows[m, :n] = 1
    cost = np.concatenate([np.zeros(n), [-weight(e) for e in elements]])
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(rows, -np.inf, np.r_[np.zeros(m), k]),
        integrality=np.ones(n + m),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success
    return -result.fun


class TestMilpOracle:
    def test_matches_milp_for_every_objective(self):
        """On seeded random instances, for each objective, the optimum equals
        an independent MILP's and the measure of the sets returned. ``k`` is
        the fewest sets that could cover the union, and the embeddings lean
        to low vertex ids, so most optima fall below the ceiling
        ``min(sum of the k largest set weights, weight of the union)`` and
        the search, not the ceiling, decides them."""
        pytest.importorskip("scipy")
        below = dict.fromkeys(OBJECTIVE_NAMES, 0)
        trials = 30
        for seed in range(trials):
            rng = random.Random(seed)
            size = rng.randint(9, 11)
            graph = random_labeled_graph(size, 1, 0.6, seed=seed)
            query = connected_query_from(graph, rng.randint(2, 3), seed=seed)
            embeddings = [
                tuple(sorted(range(size), key=lambda v: rng.random() * (v + 1))[: query.size])
                for _ in range(rng.randint(6, 10))
            ]
            weights = [(v, rng.uniform(0.5, 3.0)) for v in range(size)]
            for name in OBJECTIVE_NAMES:
                objective = make_objective(name, query, graph, vertex_weights=weights)
                sets = list({objective.elements(e) for e in embeddings})
                k = -(-len(set().union(*sets)) // max(map(len, sets)))
                got, chosen = optimal_coverage(embeddings, k, objective=objective)
                assert len(chosen) <= k
                assert got == objective.measure(set().union(*chosen)), (seed, name)
                assert got == pytest.approx(milp_optimum(sets, k, objective.weight)), (seed, name)
                largest = sorted(map(objective.measure, sets), reverse=True)[:k]
                ceiling = min(sum(largest), objective.measure(set().union(*sets)))
                below[name] += got < ceiling - 1e-9
        for name, count in below.items():
            assert count >= trials / 2, (name, count)
