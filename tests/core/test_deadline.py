"""Wall-clock deadline (``time_budget_ms``) tests.

The deadline is stride-checked (every ``DEADLINE_CHECK_STRIDE`` expansions),
so tests pin the stride to 1 to make tiny budgets trip deterministically.
Like ``node_budget``, an exhausted deadline must still yield a *valid*
truncated result — every returned embedding checks out — it only forfeits
the optimality claims.
"""

from __future__ import annotations

import pytest

import repro.isomorphism.backtrack as search_mod
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL, diversified_search
from repro.exceptions import BudgetExceeded, ConfigError, DeadlineExceeded
from repro.isomorphism.qsearch import QSearchEngine
from repro.observability import Instrumentation


@pytest.fixture()
def stride_one(monkeypatch):
    monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)


class TestConfig:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError):
            DSQLConfig(k=2, time_budget_ms=0)
        with pytest.raises(ConfigError):
            DSQLConfig(k=2, time_budget_ms=-5.0)

    def test_exception_hierarchy(self):
        # Every truncation path that catches BudgetExceeded must also
        # catch a tripped deadline.
        assert issubclass(DeadlineExceeded, BudgetExceeded)


class TestQueryDeadline:
    def test_tiny_budget_truncates_validly(self, stride_one, imdb_small):
        graph, query = imdb_small
        config = DSQLConfig(k=5, time_budget_ms=1e-6, validate_results=True)
        result = DSQL(graph, config=config).query(query)
        assert result.stats.deadline_exhausted
        assert not result.stats.budget_exhausted
        assert not result.optimal
        # validate_results=True already checked each embedding in query().
        assert len(result) <= 5

    def test_generous_budget_matches_unbudgeted(self, fig1):
        graph, query = fig1
        plain = diversified_search(graph, query, k=2)
        budgeted = diversified_search(graph, query, k=2, time_budget_ms=60_000.0)
        assert not budgeted.stats.deadline_exhausted
        assert budgeted.to_dict() == plain.to_dict()

    def test_deadline_distinct_from_node_budget(self, stride_one, imdb_small):
        graph, query = imdb_small
        result = diversified_search(graph, query, k=5, node_budget=1)
        assert result.stats.budget_exhausted
        assert not result.stats.deadline_exhausted


class TestOptimizedEngineDeadline:
    def test_tiny_budget_stops_enumeration(self, stride_one, imdb_small):
        graph, query = imdb_small
        engine = QSearchEngine(graph, query, time_budget_ms=1e-6)
        embeddings = list(engine.embeddings())
        assert engine.deadline_exhausted
        assert not engine.budget_exhausted
        # Whatever was found before the cut-off is still correct.
        for emb in embeddings:
            for a, b in query.edges():
                assert graph.has_edge(emb[a], emb[b])

    def test_stride_is_read_live(self, monkeypatch, imdb_small):
        """One constant, one reader: a patch after construction still lands."""
        graph, query = imdb_small
        instr = Instrumentation()
        engine = QSearchEngine(graph, query, time_budget_ms=60_000.0, instrumentation=instr)
        monkeypatch.setattr(search_mod, "DEADLINE_CHECK_STRIDE", 1)
        list(engine.embeddings())
        assert instr.metrics.snapshot()["deadline.ticks"] == engine.nodes_expanded > 0

    def test_no_budget_flag_stays_clear(self, fig1):
        graph, query = fig1
        engine = QSearchEngine(graph, query, time_budget_ms=60_000.0)
        list(engine.embeddings())
        assert not engine.deadline_exhausted
