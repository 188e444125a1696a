"""Unit tests for :mod:`repro.experiments.runner`."""

from __future__ import annotations

import pytest

from repro.core.config import DSQLConfig
from repro.experiments.runner import (
    SolverOutcome,
    com_solver,
    compare_solvers,
    dsql_solver,
    first_k_solver,
    random_start_solver,
    run_batch,
    run_executor_batch,
)

from tests.conftest import connected_query_from, random_labeled_graph


@pytest.fixture(scope="module")
def setting():
    graph = random_labeled_graph(40, 3, 0.15, seed=33)
    queries = [connected_query_from(graph, 2, seed=s) for s in range(4)]
    return graph, queries


class TestAdapters:
    def test_dsql_solver_outcome(self, setting):
        graph, queries = setting
        outcome = dsql_solver(DSQLConfig(k=4))(graph, queries[0])
        assert isinstance(outcome, SolverOutcome)
        assert outcome.coverage <= outcome.max_value

    def test_dsql_max_rule(self, setting):
        graph, queries = setting
        outcome = dsql_solver(DSQLConfig(k=4))(graph, queries[0])
        if outcome.optimal:
            assert outcome.max_value == outcome.coverage
        else:
            assert outcome.max_value == 4 * queries[0].size

    def test_com_solver(self, setting):
        graph, queries = setting
        outcome = com_solver(4)(graph, queries[0])
        assert outcome.max_value == 4 * queries[0].size
        assert not outcome.optimal

    def test_first_k_solver(self, setting):
        graph, queries = setting
        outcome = first_k_solver(4)(graph, queries[0])
        assert outcome.num_embeddings <= 4

    def test_random_start_solver(self, setting):
        graph, queries = setting
        outcome = random_start_solver(4)(graph, queries[0])
        assert outcome.num_embeddings <= 4


class TestRunBatch:
    def test_records_per_query(self, setting):
        graph, queries = setting
        summary = run_batch(graph, queries, dsql_solver(DSQLConfig(k=3)), label="dsql")
        assert len(summary) == len(queries)
        assert summary.label == "dsql"
        assert all(r.seconds >= 0 for r in summary.records)

    def test_compare_solvers(self, setting):
        graph, queries = setting
        out = compare_solvers(
            graph,
            queries,
            {"DSQL": dsql_solver(DSQLConfig(k=3)), "COM": com_solver(3)},
        )
        assert set(out) == {"DSQL", "COM"}
        assert all(len(s) == len(queries) for s in out.values())

    def test_dsql_dominates_baselines_in_coverage(self, setting):
        """The paper's headline: DSQL coverage >= the baselines' coverage."""
        graph, queries = setting
        out = compare_solvers(
            graph,
            queries,
            {
                "DSQL": dsql_solver(DSQLConfig(k=5)),
                "FIRSTK": first_k_solver(5),
            },
        )
        assert out["DSQL"].mean_coverage >= out["FIRSTK"].mean_coverage - 1e-9


class TestRunExecutorBatch:
    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_matches_run_batch_measurements(self, setting, strategy):
        graph, queries = setting
        config = DSQLConfig(k=3)
        serial = run_batch(graph, queries, dsql_solver(config), label="serial")
        summary = run_executor_batch(
            graph, queries, config, strategy=strategy, jobs=2, label="exec"
        )
        assert len(summary) == len(queries)
        assert summary.label == "exec"
        # Timing differs; every result-derived field must not.
        for got, ref in zip(summary.records, serial.records):
            assert got.coverage == ref.coverage
            assert got.max_value == ref.max_value
            assert got.num_embeddings == ref.num_embeddings
            assert got.optimal == ref.optimal

    def test_memo_marks_duplicates(self, setting):
        graph, queries = setting
        summary = run_executor_batch(
            graph, queries + queries, DSQLConfig(k=3), strategy="thread", jobs=2
        )
        assert summary.cache_hits == len(queries)

    def test_deadline_recorded(self, setting, monkeypatch):
        import repro.isomorphism.backtrack as search_mod

        monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)
        graph, queries = setting
        summary = run_executor_batch(
            graph, queries, DSQLConfig(k=3, time_budget_ms=1e-6)
        )
        assert summary.any_deadline_exhausted
        assert not summary.any_budget_exhausted
