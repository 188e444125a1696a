"""Conflict sets as query-node bitmasks, against the set rule they replaced.

Section 5.3's failure set of a node ``u`` exhausted at depth ``d`` is
``CT(u, *) ∪ CT(u, beta)`` plus what ``u``'s failed children blamed, minus
``u``: its query neighbors, and every node of ``order[:d]`` whose vertex is
in ``candS(u)``. ``ConflictDirectedSearch._conflict_set`` builds it as an
``int`` (bit ``w`` is node ``w``) and probes only the nodes that share
``u``'s label. The rule below is the old one, written out over sets; on
random small graphs whose queries repeat a label — the only queries where
the dynamic part can blame anyone — the two must agree at every failure
point, and swapping one for the other must change no result and no counter.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.isomorphism.backtrack import ConflictDirectedSearch
from repro.isomorphism.qsearch import QSearchEngine, count_embeddings

from tests.conftest import connected_query_from, random_labeled_graph

TOGGLES = {  # each Section 5 switch, flipped from its default
    "conflict_skipping": False,
    "bad_vertex_skipping": False,
    "relaxed_bad_vertices": True,
    "single_embedding_mode": False,
    "exhaustive_level": True,
}


def nodes(mask: int) -> set:
    return {w for w in range(mask.bit_length()) if mask >> w & 1}


def set_rule(engine, u: int, inherited: int) -> int:
    """The failure set of ``u`` by the rule the bitmask replaced: static
    neighbors, every node of ``order[:depth]`` whose vertex is in
    ``pool_set(u)``, and what was inherited, minus ``u``."""
    depth = list(engine.order).index(u)
    pool = engine._pool_set(u)
    conflict = nodes(inherited) | set(engine.query.neighbors(u))
    conflict |= {w for w in engine.order[:depth] if engine._assignment[w] in pool}
    conflict.discard(u)
    return sum(1 << w for w in conflict)


def repeated_label_cases(count=12):
    """``(graph, query)`` pairs on 25-vertex graphs over three labels whose
    query repeats a label."""
    cases, seed = [], 0
    while len(cases) < count:
        graph = random_labeled_graph(25, 3, 0.25, seed=seed)
        query = connected_query_from(graph, 2 + seed % 4, seed=seed + 101)
        if len(set(query.labels)) < query.size:
            cases.append((graph, query))
        seed += 1
    return cases


CASES = repeated_label_cases()


@pytest.fixture()
def checked(monkeypatch):
    """Check the bitmask rule against :func:`set_rule` at every call; counts
    the failure points and those where the dynamic part blamed a node."""
    seen = Counter()
    real = ConflictDirectedSearch._conflict_set

    def both(self, u, inherited):
        got = real(self, u, inherited)
        assert got == set_rule(self, u, inherited), (u, self.order, self._assignment)
        seen["points"] += 1
        seen["dynamic"] += bool(got & ~(inherited | self._static_conflicts[u]))
        return got

    monkeypatch.setattr(ConflictDirectedSearch, "_conflict_set", both)
    return seen


def flipped(toggle=None) -> DSQLConfig:
    config = DSQLConfig(k=6)
    return config if toggle is None else dataclasses.replace(config, **{toggle: TOGGLES[toggle]})


def answers(config):
    out = []
    for graph, query in CASES:
        result = DSQL(graph, config).query(query)
        out.append((result.to_dict(), dataclasses.asdict(result.stats)))
    return out


@pytest.mark.parametrize("toggle", [None, *TOGGLES])
def test_the_bitmask_is_the_set_rule_at_every_failure_point(checked, toggle):
    answers(flipped(toggle))
    assert checked["points"] > 50 and checked["dynamic"] > 0


@pytest.mark.parametrize("toggle", TOGGLES)
def test_a_repeated_label_answers_alike_under_both_rules(monkeypatch, toggle):
    """DSQL's results and every ``SearchStats`` field, with each Section 5
    switch flipped, are the same whether conflict sets come from the bitmask
    rule or from the set rule."""
    config = flipped(toggle)
    want = answers(config)
    monkeypatch.setattr(ConflictDirectedSearch, "_conflict_set", set_rule)
    assert answers(config) == want


def switched_on(graph, query):
    """The stream and pruning counters of ``QSearchEngine`` with conflict
    backjumping and bad-vertex skipping both on."""
    engine = QSearchEngine(graph, query, conflict_backjumping=True, bad_vertex_skipping=True)
    stream = list(engine.embeddings())
    prunes = (engine.conflict_skips, engine.bad_vertex_skips, engine.bad_vertices_marked)
    return stream, prunes, engine.nodes_expanded


def test_count_embeddings_is_unchanged_with_both_switches_on(checked, monkeypatch):
    """``QSearchEngine`` with both switches on enumerates what
    ``count_embeddings`` counts, and prunes alike under both rules."""
    runs = [switched_on(graph, query) for graph, query in CASES]
    for (graph, query), (stream, _, _) in zip(CASES, runs):
        assert (len(stream), True) == count_embeddings(graph, query)
        assert len(set(stream)) == len(stream)
    assert checked["points"] > 0 and sum(sum(prunes) for _, prunes, _ in runs) > 0
    monkeypatch.setattr(ConflictDirectedSearch, "_conflict_set", set_rule)
    assert [switched_on(graph, query) for graph, query in CASES] == runs
