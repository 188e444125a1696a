"""Property-based tests for the full DSQL solver on random small instances.

Each property drives the complete pipeline (candidates -> Phase 1 -> Phase 2)
on hypothesis-generated graphs and checks the result contract against naive
reference implementations.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.coverage.bounds import overall_ratio_bound
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.graph.validation import embeddings_distinct, validate_embedding

from tests.conftest import brute_force_distinct_vertex_sets, brute_force_embeddings

OBJECTIVES = ("vertex", "edge", "weighted-vertex")

# docs/objectives.md, "Which guarantees survive": the certificate rows.
CERTIFICATES = {"vertex": "disjoint exhausted", "edge": "disjoint", "weighted-vertex": "exhausted"}


FLOAT_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.3)


def strict(k, objective, table=None):
    """No candidate cap, exhaustive levels: the paper's maximality argument holds."""
    return DSQLConfig(
        k=k,
        objective=objective,
        exhaustive_level=True,
        single_embedding_mode=False,
        vertex_weights=table,
    )


def brute_force_optimum(graph, query, k, objective, table=None):
    """``(measure, best)`` in the objective's own units, without ``repro.coverage``:
    ``measure`` scores a collection of mappings, ``best`` is the optimum over every
    <=k-subset of the distinct element sets (None when there are too many to try).
    ``table`` is a ``weighted-vertex`` float table (unlisted vertices weigh 1)."""

    def elements(mapping):
        if objective == "edge":
            return frozenset(frozenset((mapping[a], mapping[b])) for a, b in query.edges())
        return frozenset(mapping)

    def measure(mappings):
        covered = frozenset().union(*map(elements, mappings))
        if table is not None:
            return math.fsum(table.get(v, 1) for v in covered)
        if objective == "weighted-vertex":  # no table given: 1 + degree(v)
            return sum(1 + graph.degree(v) for v in covered)
        return len(covered)

    if objective == "edge":
        # One mapping per distinct edge set; vertex sets forget the edges.
        sets = list({elements(m): m for m in brute_force_embeddings(graph, query)}.values())
    else:
        sets = list(brute_force_distinct_vertex_sets(graph, query))
    if len(sets) > 40:
        return measure, None
    best = max(
        (
            measure(combo)
            for size in range(1, min(k, len(sets)) + 1)
            for combo in combinations(sets, size)
        ),
        default=0,
    )
    return measure, best


@st.composite
def instances(draw):
    """A (graph, query, k) instance small enough for brute-force checks."""
    n = draw(st.integers(min_value=4, max_value=16))
    num_labels = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(n)]
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
    ]
    graph = LabeledGraph(labels, edges)

    # Query: a small connected subgraph of the data graph (guaranteed to
    # have at least one embedding — itself).
    if graph.num_edges == 0:
        query = QueryGraph([labels[0]])
    else:
        from repro.exceptions import DatasetError
        from repro.queries.generator import random_query

        z = min(draw(st.integers(min_value=1, max_value=3)), graph.num_edges)
        query = None
        while z >= 1:
            try:
                query = random_query(graph, z, rng=rng)
                break
            except DatasetError:
                z -= 1  # no connected z-edge subgraph; shrink
        if query is None:
            query = QueryGraph([labels[0]])
    k = draw(st.integers(min_value=1, max_value=5))
    return graph, query, k


@settings(max_examples=60, deadline=None)
@given(instances())
def test_result_contract(instance):
    graph, query, k = instance
    result = DSQL(graph, config=DSQLConfig(k=k)).query(query)
    assert len(result) <= k
    assert embeddings_distinct(result.embeddings)
    for emb in result.embeddings:
        validate_embedding(graph, query, emb)
    assert result.coverage == len(result.cover_set())
    assert result.coverage <= k * query.size


@settings(max_examples=40, deadline=None)
@given(instances())
def test_nonempty_whenever_embeddings_exist(instance):
    graph, query, k = instance
    result = DSQL(graph, config=DSQLConfig(k=k)).query(query)
    exists = bool(brute_force_distinct_vertex_sets(graph, query))
    assert bool(result.embeddings) == exists


def union_of_candidate_pools(graph, query):
    """``∪_u candS(u)`` spelled from the three filters of Section 3, without
    ``repro.indexes``: label, degree, neighbourhood labels."""

    def labels_around(g, x):
        return {g.label(y) for y in g.neighbors(x)}

    return {
        v
        for u in query.vertices()
        for v in graph.vertices()
        if graph.label(v) == query.label(u)
        and graph.degree(v) >= query.degree(u)
        and labels_around(query, u) <= labels_around(graph, v)
    }


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(min_value=0, max_value=10_000))
def test_theorem4_bound_against_brute_force(instance, table_seed):
    """DSQL (strict mode) coverage >= the documented fraction of the true optimum.

    ``vertex`` is held to the Theorem 4 constant; ``edge`` and
    ``weighted-vertex`` claim no constant, only ``coverage / coverage_bound``,
    which is a lower bound on the true ratio iff the bound is above the optimum.
    The weighted ceiling (degree-derived weights, then a drawn float table) is
    also held from above: never looser than ``k`` times the ``q`` heaviest
    vertices of the graph, which it replaced, nor than all of ``∪ candS``.
    """
    graph, query, k = instance
    rng = random.Random(table_seed)
    drawn = {v: rng.choice(FLOAT_WEIGHTS) for v in graph.vertices() if rng.random() < 0.8}
    # An empty draw is no table at all (degree-derived weights, the arm above):
    # the program and ``measure`` would otherwise read ``{}`` differently.
    arms = [(name, None) for name in OBJECTIVES] + [("weighted-vertex", drawn)] * bool(drawn)
    for objective, table in arms:
        measure, opt = brute_force_optimum(graph, query, k, objective, table)
        if not opt:
            continue
        config = strict(k, objective, tuple(table.items()) if table else None)
        result = DSQL(graph, config=config).query(query)
        assert result.coverage == measure(result.embeddings), objective
        if objective == "vertex":
            assert result.coverage >= overall_ratio_bound(k, query.size) * opt - 1e-9
        else:
            assert opt <= result.coverage_bound, objective
            assert result.coverage <= result.coverage_bound, objective
        if objective == "weighted-vertex":
            weigh = (lambda v: 1 + graph.degree(v)) if table is None else (lambda v: table.get(v, 1))
            heaviest = sorted(map(weigh, graph.vertices()), reverse=True)[: query.size]
            assert result.coverage_bound <= math.fsum(heaviest * k)
            assert result.coverage_bound <= math.fsum(
                map(weigh, union_of_candidate_pools(graph, query))
            )
        assert result.approx_ratio_lower_bound() * opt <= result.coverage + 1e-9, objective


@settings(max_examples=40, deadline=None)
@given(instances())
def test_optimality_claims_verified(instance):
    """Whenever DSQL (strict mode) claims optimality, brute force agrees, and
    each objective claims only the certificates docs/objectives.md grants it."""
    graph, query, k = instance
    for objective in OBJECTIVES:
        _, opt = brute_force_optimum(graph, query, k, objective)
        if opt is None:
            continue
        result = DSQL(graph, config=strict(k, objective)).query(query)
        if result.optimal:
            assert result.optimal_reason in CERTIFICATES[objective].split(), objective
            assert result.coverage == opt, objective


@settings(max_examples=30, deadline=None)
@given(instances())
def test_variants_agree_on_validity(instance):
    graph, query, k = instance
    for factory in (DSQLConfig.dsql0, DSQLConfig.dsql2, DSQLConfig.dsql3):
        result = DSQL(graph, config=factory(k)).query(query)
        for emb in result.embeddings:
            validate_embedding(graph, query, emb)


@settings(max_examples=30, deadline=None)
@given(instances())
def test_pruning_variants_match_dsql0_coverage(instance):
    """§5.3/§5.4 are pruning-only: coverage identical to DSQL0."""
    graph, query, k = instance
    base = DSQL(graph, config=DSQLConfig.dsql0(k)).query(query)
    for factory in (DSQLConfig.dsql2, DSQLConfig.dsql3):
        other = DSQL(graph, config=factory(k)).query(query)
        assert other.coverage == base.coverage
