"""Unit tests for :mod:`repro.experiments.paper` (the experiment runners)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.com import com_search
from repro.baselines.enumerate_then_cover import STRATEGIES
from repro.baselines.firstk import first_k_baseline
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.experiments.measurement import QueryRecord
from repro.experiments.paper import (
    DEFAULT_BUDGET,
    ablation,
    run_com,
    run_dsql,
    sweep_k,
    sweep_query_size,
    table2_counts,
    table3_firstk,
    table4_strategies,
)

from tests.conftest import connected_query_from, random_labeled_graph


@pytest.fixture(scope="module")
def setting():
    graph = random_labeled_graph(60, 3, 0.12, seed=77)
    queries = [connected_query_from(graph, 3, seed=s) for s in range(4)]
    return graph, queries


class TestBatchRunners:
    def test_run_dsql(self, setting):
        graph, queries = setting
        summary = run_dsql(graph, queries, DSQLConfig(k=5))
        assert len(summary) == 4
        assert summary.mean_coverage <= summary.mean_max + 1e-9

    def test_run_com(self, setting):
        graph, queries = setting
        summary = run_com(graph, queries, 5)
        assert len(summary) == 4


def answers(summary):
    """Every field of every record but ``seconds``."""
    names = [f.name for f in dataclasses.fields(QueryRecord) if f.name != "seconds"]
    return [{name: getattr(r, name) for name in names} for r in summary.records]


class TestOneTimedLoop:
    """``run_dsql``, ``run_com`` and ``table3_firstk`` record exactly what
    the solvers answer, under the same budgets."""

    @pytest.mark.parametrize("budget", [None, 5])
    def test_records_are_the_solvers_answers(self, setting, budget):
        graph, queries = setting
        k = 5
        passed = {} if budget is None else {"node_budget": budget}
        config = DSQLConfig(k=k, node_budget=budget or DEFAULT_BUDGET)
        session = DSQL(graph, config=config)
        dsql = [session.query(q) for q in queries]
        com = [com_search(graph, q, k, node_budget=budget or DEFAULT_BUDGET) for q in queries]
        firstk = [first_k_baseline(graph, q, k, node_budget=budget or 200_000) for q in queries]
        baseline = dict(optimal=False, deadline_exhausted=False, from_cache=False, metrics=None)
        want = [
            [
                dict(
                    coverage=r.coverage, max_value=r.max_value(), num_embeddings=len(r),
                    optimal=r.optimal, budget_exhausted=r.stats.budget_exhausted,
                    deadline_exhausted=r.stats.deadline_exhausted, from_cache=r.from_cache,
                    metrics=r.stats.snapshot(),
                )
                for r in dsql
            ],
            [
                dict(baseline, coverage=r.coverage, max_value=k * q.size,
                     num_embeddings=len(r.embeddings), budget_exhausted=r.budget_exhausted)
                for q, r in zip(queries, com)
            ],
            [
                dict(baseline, coverage=r.coverage, max_value=k * q.size,
                     num_embeddings=len(r.embeddings), budget_exhausted=False)
                for q, r in zip(queries, firstk)
            ],
        ]
        got = [
            run_dsql(graph, queries, config),
            run_com(graph, queries, k, **passed),
            table3_firstk(graph, queries, k, **passed),
        ]
        assert [answers(summary) for summary in got] == want
        if budget is not None:  # the tight budget binds, so it was passed through
            assert all(r.stats.budget_exhausted for r in dsql)
            assert all(r.budget_exhausted for r in com)
            assert all(len(r.embeddings) < k for r in firstk)


class TestTableRunners:
    def test_table2(self, setting):
        graph, queries = setting
        row = table2_counts(graph, queries, dataset="toy")
        assert row.dataset == "toy"
        assert row.total == 4
        assert row.worst >= row.average or row.total == 0

    def test_table3(self, setting):
        graph, queries = setting
        summary = table3_firstk(graph, queries, 5)
        assert len(summary) == 4
        assert 0 <= summary.mean_ratio <= 1

    def test_table4(self, setting):
        graph, queries = setting
        result = table4_strategies(graph, queries, 5)
        names = {o.strategy for o in result.outcomes}
        assert names == set(STRATEGIES) | {"DSQL"}
        assert result.generation_millis >= 0
        assert result.coverage_of("DSQL") > 0
        with pytest.raises(KeyError):
            result.coverage_of("nope")


class TestSweeps:
    def test_sweep_k_series_aligned(self, setting):
        graph, queries = setting
        series = sweep_k(graph, queries, [2, 4])
        for values in series.values():
            assert len(values) == 2
        # DSQL coverage non-decreasing in k on the same batch.
        assert series["DSQL cov"][1] >= series["DSQL cov"][0] - 1e-9

    def test_sweep_k_extra_solver(self, setting):
        graph, queries = setting
        series = sweep_k(
            graph,
            queries,
            [3],
            solvers={"DSQLh": lambda k: DSQLConfig.dsqlh(k, node_budget=100_000)},
        )
        assert list(series) == [
            "DSQL cov", "DSQLh cov", "COM cov", "MAX", "DSQL ms", "DSQLh ms", "COM ms",
        ]
        assert all(len(values) == 1 for values in series.values())

    def test_sweep_query_size(self, setting):
        graph, _ = setting
        batches = {
            2: [connected_query_from(graph, 2, seed=s) for s in range(3)],
            4: [connected_query_from(graph, 4, seed=s) for s in range(3)],
        }
        series = sweep_query_size(graph, batches, 4)
        assert len(series["DSQL cov"]) == 2


class TestAblation:
    def test_all_variants_run(self, setting):
        graph, queries = setting
        out = ablation(graph, queries, 4, variants=("DSQL0", "DSQL2", "DSQL"))
        assert set(out) == {"DSQL0", "DSQL2", "DSQL"}
        # Pruning-only variants keep DSQL0's coverage.
        assert out["DSQL2"].mean_coverage == pytest.approx(out["DSQL0"].mean_coverage)
