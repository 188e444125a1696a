"""Tests for the DSQL session query-result memo (``DSQL.query_many``)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.state import SearchStats
from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph


@pytest.fixture()
def graph():
    labels = ["a", "b", "a", "b", "c", "a"]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 3)]
    return LabeledGraph(labels, edges)


def _query(a="a", b="b"):
    return QueryGraph([a, b], [(0, 1)])


def test_repeated_query_hits_cache(graph):
    session = DSQL(graph, k=3)
    q = _query()
    results = session.query_many([q, q, q])
    assert session.stats.query_cache_misses == 1
    assert session.stats.query_cache_hits == 2
    # Hits are equal to the miss but are flagged copies, not the same object.
    assert results[1] is not results[0] and results[2] is not results[0]
    assert results[0].embeddings == results[1].embeddings == results[2].embeddings
    assert not results[0].from_cache
    assert results[1].from_cache and results[2].from_cache


def test_equal_structure_shares_entry(graph):
    session = DSQL(graph, k=3)
    # Distinct objects, same labels and (normalized) edge set -> same key.
    q1 = QueryGraph(["a", "b"], [(0, 1)])
    q2 = QueryGraph(["a", "b"], [(1, 0)])
    r1, r2 = session.query_many([q1, q2])
    assert session.stats.query_cache_hits == 1
    assert r1.embeddings == r2.embeddings
    assert not r1.from_cache and r2.from_cache


def test_cache_persists_across_calls(graph):
    session = DSQL(graph, k=3)
    q = _query()
    session.query_many([q])
    session.query_many([q])
    assert session.stats.query_cache_hits == 1
    assert session.stats.query_cache_misses == 1


def test_lru_eviction_with_tiny_cap(graph):
    config = DSQLConfig(k=3, query_cache_size=1)
    session = DSQL(graph, config=config)
    qa, qb = _query("a", "b"), _query("b", "c")
    session.query_many([qa, qb, qa])  # qb evicts qa; third call misses
    assert session.stats.query_cache_misses == 3
    assert session.stats.query_cache_hits == 0
    session.query_many([qa])  # now resident
    assert session.stats.query_cache_hits == 1


def test_cap_zero_disables_cache(graph):
    session = DSQL(graph, config=DSQLConfig(k=3, query_cache_size=0))
    q = _query()
    r1, r2 = session.query_many([q, q])
    assert session.stats.query_cache_misses == 2
    assert session.stats.query_cache_hits == 0
    assert r1 is not r2
    assert r1.embeddings == r2.embeddings
    assert not r1.from_cache and not r2.from_cache


def test_unbounded_cache(graph):
    session = DSQL(graph, config=DSQLConfig(k=3, query_cache_size=None))
    queries = [_query("a", "b"), _query("b", "c"), _query("a", "c")]
    session.query_many(queries + queries)
    assert session.stats.query_cache_misses == 3
    assert session.stats.query_cache_hits == 3


def test_cached_results_match_fresh_query(graph):
    session = DSQL(graph, k=3)
    q = _query()
    (cached,) = session.query_many([q])
    fresh = DSQL(graph, k=3).query(q)
    assert cached.embeddings == fresh.embeddings
    assert cached.coverage == fresh.coverage
    assert cached.optimal == fresh.optimal


def test_config_rejects_negative_cache_size():
    with pytest.raises(ConfigError):
        DSQLConfig(k=3, query_cache_size=-1)


# ----------------------------------------------------------------------
# Memo aliasing regression (the PR-2 headline bugfix): before results were
# frozen, a cache hit returned the same mutable DSQResult on every call, so
# one caller mutating result.embeddings corrupted the cache for everyone.
# ----------------------------------------------------------------------
def test_returned_result_is_immutable(graph):
    session = DSQL(graph, k=3)
    (result,) = session.query_many([_query()])
    with pytest.raises(Exception):
        result.embeddings = ()
    with pytest.raises(AttributeError):
        result.embeddings.clear()  # tuples have no mutators
    with pytest.raises(AttributeError):
        result.embeddings.append((0, 1))


def test_mutating_caller_cannot_corrupt_cache(graph):
    session = DSQL(graph, k=3)
    q = _query()
    (first,) = session.query_many([q])
    pristine_embeddings = tuple(first.embeddings)
    pristine_nodes = first.stats.nodes_expanded

    # A hostile/buggy caller tries every mutation the old API allowed.
    for attack in (
        lambda r: r.embeddings.clear(),
        lambda r: r.embeddings.append((99, 99)),
        lambda r: setattr(r, "coverage", -1),
    ):
        with pytest.raises(Exception):
            attack(first)
    # stats is intentionally a mutable counter bundle; mutate it freely.
    first.stats.nodes_expanded = -123

    (second,) = session.query_many([q])
    assert second.from_cache
    assert second.embeddings == pristine_embeddings
    assert second.coverage == first.coverage
    # The hit's stats are a copy of the *cached* pristine counters, not the
    # aliased object the first caller scribbled on.
    assert second.stats.nodes_expanded == pristine_nodes


def test_cache_hit_stats_are_independent_copies(graph):
    session = DSQL(graph, k=3)
    q = _query()
    session.query_many([q])
    (hit1,) = session.query_many([q])
    hit1.stats.nodes_expanded = 10**9
    (hit2,) = session.query_many([q])
    assert hit2.stats.nodes_expanded != 10**9


def test_hit_shares_nothing_mutable_with_the_memo(graph):
    """The isolation ``SearchStats.copy`` keeps, dict included: scribbling on
    a hit's counters *and* on its ``per_level_added`` moves neither the
    stored entry nor the next hit — and a copy is a full copy."""
    session = DSQL(graph, k=3)
    q = _query()
    (first,) = session.query_many([q])
    pristine = dataclasses.asdict(first.stats)
    assert pristine["per_level_added"] and pristine["nodes_expanded"] > 0
    first.stats.per_level_added[99] = 7  # the miss's own object is not the stored one
    (hit,) = session.query_many([q])
    assert dataclasses.asdict(hit.stats) == pristine
    hit.stats.per_level_added.clear()
    hit.stats.per_level_added[99] = 7
    hit.stats.nodes_expanded = hit.stats.embeddings_found = -1
    hit.stats.budget_exhausted = True
    (stored,) = session._query_cache.values()
    assert dataclasses.asdict(stored.stats) == pristine
    (again,) = session.query_many([q])
    assert dataclasses.asdict(again.stats) == pristine
    assert again.stats is not stored.stats
    assert again.stats.per_level_added is not stored.stats.per_level_added
    twin = stored.stats.copy()
    assert type(twin) is SearchStats and twin == stored.stats
    assert [f.name for f in dataclasses.fields(twin)] == list(vars(twin))


def test_session_pins_index_cache(graph):
    session = DSQL(graph, k=3)
    assert session.index_cache is graph.index_cache()
    other = DSQL(graph, k=5)
    assert other.index_cache is session.index_cache
