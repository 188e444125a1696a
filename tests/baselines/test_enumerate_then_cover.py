"""Unit tests for :mod:`repro.baselines.enumerate_then_cover`."""

from __future__ import annotations

import pytest

from repro.baselines.enumerate_then_cover import (
    STRATEGIES,
    generate_all,
    select_top_k,
)
from repro.coverage.core import coverage
from repro.exceptions import ConfigError
from repro.experiments.paper import table4_strategies

from tests.conftest import (
    brute_force_distinct_vertex_sets,
    connected_query_from,
    random_labeled_graph,
)


@pytest.fixture(scope="module")
def setting():
    graph = random_labeled_graph(30, 2, 0.25, seed=21)
    query = connected_query_from(graph, 2, seed=21)
    return graph, query


class TestGenerateAll:
    def test_matches_brute_force(self, setting):
        graph, query = setting
        stream, complete = generate_all(graph, query)
        assert complete
        assert {frozenset(m) for m in stream} == brute_force_distinct_vertex_sets(graph, query)

    def test_a_tripped_budget_is_reported(self, setting):
        graph, query = setting
        full, _ = generate_all(graph, query)
        prefix, complete = generate_all(graph, query, node_budget=2)
        assert not complete
        assert len(prefix) < len(full)


class TestSelectTopK:
    def test_every_strategy_runs(self, setting):
        graph, query = setting
        embeddings, _ = generate_all(graph, query)
        for strategy in STRATEGIES:
            members = select_top_k(embeddings, 4, strategy)
            assert len(members) <= 4

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            select_top_k([], 3, "SWAP9")

    def test_greedy_at_least_swaps(self, setting):
        """Greedy's (1-1/e) guarantee should beat/match 0.25-swaps here."""
        graph, query = setting
        embeddings, _ = generate_all(graph, query)
        if not embeddings:
            pytest.skip("no embeddings on this seed")
        greedy_cov = coverage(select_top_k(embeddings, 4, "Greedy"))
        for strategy in ("SWAP1", "SWAP2"):
            assert greedy_cov >= 0.5 * coverage(select_top_k(embeddings, 4, strategy))


class TestPipeline:
    """The Table 4 loop over both stages is ``paper.table4_strategies``."""

    def test_run_pipeline_fields(self, setting):
        graph, query = setting
        result = table4_strategies(graph, [query], 4)
        members = select_top_k(generate_all(graph, query)[0], 4, "SWAPalpha")
        assert result.coverage_of("SWAPalpha") == coverage(members)
        assert result.generation_millis >= 0
        assert result.truncated == 0
        assert table4_strategies(graph, [query, query], 4, generation_budget=2).truncated == 2
        outcome = next(o for o in result.outcomes if o.strategy == "SWAPalpha")
        assert outcome.includes_generation and outcome.mean_millis >= 0

    def test_shared_generation(self, setting):
        """One generation per query feeds every strategy: each strategy's
        coverage is its selection over that one stream."""
        graph, query = setting
        result = table4_strategies(graph, [query], 4)
        assert [o.strategy for o in result.outcomes] == [*STRATEGIES, "DSQL"]
        embeddings, _ = generate_all(graph, query, node_budget=150_000)
        for strategy in STRATEGIES:
            want = coverage(select_top_k(embeddings, 4, strategy))
            assert result.coverage_of(strategy) == want, strategy
