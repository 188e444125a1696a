"""Unit tests for DSQL Phase 2 (Algorithm 5)."""

from __future__ import annotations

import pytest

import repro.core.phase2 as phase2_module
from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.state import SearchStats
from repro.coverage.core import CoverageTracker
from repro.coverage.objectives import make_objective
from repro.datasets.registry import make_dataset
from repro.graph.validation import embeddings_distinct, validate_embedding
from repro.indexes.candidates import CandidateIndex
from repro.queries.generator import query_set

from tests.conftest import connected_query_from, random_labeled_graph


def run_both(graph, query, config):
    stats = SearchStats()
    candidates = CandidateIndex(graph, query)
    p1 = run_phase1(graph, query, config, candidates, stats)
    p2 = None
    if len(p1.state) == config.k:
        p2 = run_phase2(graph, query, config, candidates, p1, stats)
    return p1, p2, stats


def cases():
    for seed in range(10):
        graph = random_labeled_graph(35, 2, 0.15, seed=seed)
        query = connected_query_from(graph, 3, seed=seed + 61)
        yield graph, query


class TestPhase2Soundness:
    def test_coverage_never_decreases(self):
        ran = 0
        for graph, query in cases():
            config = DSQLConfig(k=5)
            p1, p2, _ = run_both(graph, query, config)
            if p2 is None:
                continue
            ran += 1
            assert p2.coverage >= p1.state.coverage
        assert ran > 0, "no case exercised Phase 2; enlarge the battery"

    def test_result_size_stays_k(self):
        for graph, query in cases():
            config = DSQLConfig(k=5)
            p1, p2, _ = run_both(graph, query, config)
            if p2 is not None:
                assert len(p2.embeddings) == config.k

    def test_embeddings_valid_and_distinct(self):
        for graph, query in cases():
            config = DSQLConfig(k=5)
            _, p2, _ = run_both(graph, query, config)
            if p2 is None:
                continue
            for emb in p2.embeddings:
                validate_embedding(graph, query, emb)
            assert embeddings_distinct(p2.embeddings)

    def test_stats_flags(self):
        for graph, query in cases():
            config = DSQLConfig(k=5)
            _, p2, stats = run_both(graph, query, config)
            if p2 is not None:
                assert stats.phase2_ran
                assert stats.phase2_swaps == p2.swaps


class TestSwapCriterion:
    def test_alpha_zero_swaps_at_least_as_often(self):
        """Smaller alpha = weaker criterion = at least as many swaps."""
        strict_total = loose_total = 0
        for graph, query in cases():
            _, p2a, _ = run_both(graph, query, DSQLConfig(k=5, alpha=3.0))
            _, p2b, _ = run_both(graph, query, DSQLConfig(k=5, alpha=0.0))
            if p2a is not None and p2b is not None:
                strict_total += p2a.swaps
                loose_total += p2b.swaps
        assert loose_total >= strict_total


class TestEarlyTermination:
    def test_early_termination_fires_somewhere(self):
        fired = 0
        for graph, query in cases():
            _, p2, stats = run_both(graph, query, DSQLConfig(k=4))
            if p2 is not None and p2.early_terminated:
                fired += 1
        # The condition is opportunistic; it should fire at least once in a
        # battery where Phase 1 hands over overlapping collections.
        assert fired >= 1

    def test_termination_condition_honored(self):
        """When early termination fires, the Lemma 4 predicate must hold."""
        from repro.coverage.core import CoverageTracker

        for graph, query in cases():
            config = DSQLConfig(k=4)
            stats = SearchStats()
            candidates = CandidateIndex(graph, query)
            p1 = run_phase1(graph, query, config, candidates, stats)
            if len(p1.state) != config.k:
                continue
            t1_cover = frozenset(p1.state.covered)
            p2 = run_phase2(graph, query, config, candidates, p1, stats)
            if not p2.early_terminated:
                continue
            tracker = CoverageTracker(p2.embeddings)
            assert t1_cover <= tracker.cover_set()
            q = query.size
            level = p1.level + p2.levels_run - 1
            threshold = (q - level) / (1 + config.alpha)
            for slot in tracker.slots():
                assert tracker.loss(slot) >= threshold


class OldRuleTracker(CoverageTracker):
    """The two questions Lemma 4 asks, answered as ``run_phase2`` spelled
    them before the tracker did: ``C(T)`` copied per call, all k losses
    recomputed per call."""

    def covers_all(self, elems):
        return elems <= self.cover_set()

    def min_loss_member(self):
        slot = min(self.slots(), key=lambda s: (self.loss(s), s))
        return slot, self.loss(slot)


def direct_runs(objective_name, k, alpha):
    """Phase 2 entered directly (no dispatcher gate) on the random battery."""
    runs = []
    for graph, query in cases():
        config = DSQLConfig(k=k, alpha=alpha)
        stats = SearchStats()
        candidates = CandidateIndex(graph, query)
        p1 = run_phase1(graph, query, config, candidates, stats)
        if len(p1.state) == k:
            objective = make_objective(objective_name, query=query, graph=graph)
            p2 = run_phase2(graph, query, config, candidates, p1, stats, objective=objective)
            runs.append((p2, stats))
    return runs


def session_runs(objective_name, k):
    """``DSQL.query`` on a registry graph: phase 2 generates hundreds of
    embeddings under ``edge`` and ``weighted-vertex``. Against the weighted
    ceiling read off ``candS`` phase 1 certifies every full answer of this
    battery, so that objective asks for the swapping phase
    (``phase2_ratio_target=1.0``)."""
    graph = make_dataset("human", scale=1.0, seed=0)
    target = 1.0 if objective_name == "weighted-vertex" else 0.5
    session = DSQL(
        graph,
        DSQLConfig(
            k=k, node_budget=20_000, objective=objective_name, phase2_ratio_target=target
        ),
    )
    results = [session.query(query) for query in query_set(graph, 5, 8, seed=3)]
    return [(r.to_dict(), r.stats) for r in results if r.stats.phase2_ran]


class TestTerminationAsksTheTracker:
    """``termination_reached`` runs before every level and after every
    generated embedding; it costs what changed (a swap), not what was asked."""

    @pytest.mark.parametrize("objective_name", ["vertex", "edge", "weighted-vertex"])
    def test_same_phase2_as_the_old_rule_for_a_count_of_swaps(self, objective_name, monkeypatch):
        loss_calls = []
        real_loss = CoverageTracker.loss

        def counted_loss(self, slot):
            loss_calls.append(slot)
            return real_loss(self, slot)

        monkeypatch.setattr(CoverageTracker, "loss", counted_loss)
        for runs, k in (
            (lambda: direct_runs(objective_name, 5, 0.0), 5),
            (lambda: direct_runs(objective_name, 4, 1.0), 4),
            (lambda: session_runs(objective_name, 40), 40),
        ):
            del loss_calls[:]
            got = runs()
            paid = len(loss_calls)
            with monkeypatch.context() as patch:
                patch.setattr(phase2_module, "CoverageTracker", OldRuleTracker)
                want = runs()
            assert got and got == want  # embeddings, coverage, flags, every SearchStats field
            # One recompute of the minimum (k losses + the winner's) when the
            # phase starts and one per swap — however many embeddings and
            # levels asked the question in between.
            recomputes = sum(stats.phase2_swaps + 1 for _answer, stats in got)
            assert 0 < paid <= recomputes * (k + 1)
        # The registry battery (the last one) asks far more often than it swaps.
        generated = sum(stats.embeddings_generated_phase2 for _answer, stats in got)
        if objective_name != "vertex":  # vertex terminates before it generates
            assert generated > 4 * recomputes
