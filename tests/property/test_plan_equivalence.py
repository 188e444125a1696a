"""The plans-only engines reproduce the retired plan-free path, as data.

Until PR 12 every engine carried two routes from a query to its candidates
— the compiled :class:`~repro.indexes.plans.QueryPlan` and a plan-free
fork — and this module compared them live. The fork is gone; what it
computed survives as frozen digests captured from it at the parent commit
(``tests/data/sq_stream_goldens.json``, recipe in ``tests/data/README.md``):
the *ordered* embedding stream, ``nodes_expanded``, the budget flag, and
(Section 5.3/5.4 switches on) the skip counters of :class:`QSearchEngine`
— captured when switches-on was a second class, ``OptimizedQSearchEngine``
(folded in by PR 17; the key suffixes keep both names) — over every registry dataset × backend
(``csr``/``set`` — since PR 14 the two storage states of the one class, see
``tests/conftest.py::STORAGE_STATES``) × 3 queries, plus one pinned instance
per join-kernel regime plans once chose (``bitset``, ``cbitset``, the
gallop side of ``merge``; a plan chooses none now, and every depth past the
root joins on its matched neighbors' sets). The single remaining path must
reproduce each digest stream-for-stream, and — independently of any frozen
data — the embedding *set* of ``brute_force_embeddings``.

DSQL end to end is pinned the same way by the ``plans=on`` **and**
``plans=off`` rows of ``objective_vertex_goldens.json``
(``test_objective_equivalence.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import dataset_names, make_dataset
from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.indexes.plans import compile_plan
from repro.isomorphism.qsearch import QSearchEngine
from repro.kernels import GALLOP_RATIO, MERGE, SCAN
from repro.queries.generator import query_set
from tests.conftest import (
    STORAGE_STATES,
    brute_force_embeddings,
    in_storage_state,
    optimized_engine,
)
from tests.property.test_compression_equivalence import casting_instance

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "sq_stream_goldens.json")
    .read_text(encoding="utf-8")
)["digests"]

# Golden-key suffix (the capture-time class name) -> switches off / both on.
SQ_ENGINES = {"QSearchEngine": QSearchEngine, "OptimizedQSearchEngine": optimized_engine}
SQ_BUDGET = 100_000


def stream_digest(engine) -> str:
    """The capture-time recipe, frozen: change it and every golden lies."""
    stream = list(engine.embeddings())
    counters = [engine.nodes_expanded, engine.budget_exhausted]
    if engine.conflict_backjumping:
        counters += [engine.conflict_skips, engine.bad_vertex_skips]
    return hashlib.sha256(repr((stream, counters)).encode()).hexdigest()[:16]


def golden_key(case: str, engine_name: str) -> str:
    return f"{case}|{engine_name}"


def assert_matches_golden(case: str, engine) -> None:
    name = "OptimizedQSearchEngine" if engine.conflict_backjumping else "QSearchEngine"
    assert stream_digest(engine) == GOLDENS[golden_key(case, name)], (case, name)


# ----------------------------------------------------------------------
# The frozen instances (shared with the capture recipe in tests/data/README.md)
# ----------------------------------------------------------------------
def registry_cases(dataset: str, storage: str):
    """``(case, graph, query)`` for one registry dataset in one storage state."""
    graph = in_storage_state(make_dataset(dataset, scale=0.001, seed=7), storage)
    for i, query in enumerate(query_set(graph, 3, 3, seed=11)):
        yield f"{dataset}|{storage}|q{i}", graph, query


def yeast_cases():
    graph = make_dataset("yeast", scale=0.001, seed=3)
    for i, query in enumerate(query_set(graph, 3, 3, seed=5)):
        yield f"yeast-seed3|q{i}", graph, query


def dense_instance():
    """A dense single-label graph whose pools trip the bitset kernel."""
    rng = random.Random(99)
    n = 120
    labels = ["X"] * n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
    graph = LabeledGraph(labels, edges)
    query = QueryGraph(["X", "X", "X"], [(0, 1), (1, 2), (2, 0)])
    return graph, query


SKEW_HUB = 0


def skewed_instance():
    """One 300-leaf hub: the merge kernel meets a row 60x its pool.

    The path query ``A - B - C`` roots at its ``B`` node; under the hub the
    ``A`` depth intersects a ~300-long row with a 6-vertex pool — the gallop
    regime of ``intersect_sorted`` — and the ``C`` depth intersects the same
    row with an equally long pool, the hash-merge regime. A second,
    low-degree ``B`` runs both depths on the other side of the ratio.
    """
    labels = ["B"] + ["A"] * 5 + ["C"] * 300 + ["B", "A", "C"]
    edges = [(SKEW_HUB, v) for v in range(1, 306)]
    edges += [(306, 307), (306, 308), (306, 1), (306, 6)]
    graph = LabeledGraph(labels, edges)
    query = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
    return graph, query


def kernel_regime_cases():
    yield ("dense-bitset", *dense_instance())
    yield ("twins-cbitset", *casting_instance())
    yield ("skew-gallop", *skewed_instance())


def all_sq_cases():
    for dataset in dataset_names():
        for storage in STORAGE_STATES:
            yield from registry_cases(dataset, storage)
    yield from yeast_cases()
    yield from kernel_regime_cases()


def test_sq_goldens_cover_full_matrix():
    expected = {
        golden_key(case, name) for case, _g, _q in all_sq_cases() for name in SQ_ENGINES
    }
    assert set(GOLDENS) == expected
    assert len(expected) == (len(dataset_names()) * 2 * 3 + 3 + 3) * 2


# ----------------------------------------------------------------------
# Registry datasets: stream-for-stream against the plan-free goldens.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("storage", STORAGE_STATES)
def test_plans_identical_on_registry_dataset(dataset, storage):
    cases = list(registry_cases(dataset, storage))
    session = DSQL(cases[0][1], config=DSQLConfig(k=4, node_budget=200_000))
    for case, graph, query in cases:
        for engine_cls in SQ_ENGINES.values():
            assert_matches_golden(case, engine_cls(graph, query, node_budget=SQ_BUDGET))
        # DSQL runs the same kernels (its digests live in the objective
        # goldens); every query dispatches at least its root scan.
        stats = session.query(query).stats
        assert stats.kernel_scan + stats.kernel_merge + stats.kernel_bitset > 0


@pytest.mark.parametrize("engine_name", SQ_ENGINES)
def test_sq_engines_identical_with_plan(engine_name):
    """A handed-in plan and the cache-fetched one are the same route."""
    engine_cls = SQ_ENGINES[engine_name]
    for case, graph, query in yeast_cases():
        fetched = engine_cls(graph, query, node_budget=SQ_BUDGET)
        assert_matches_golden(case, fetched)
        plan = compile_plan(query, graph.index_cache())
        handed = engine_cls(graph, query, node_budget=SQ_BUDGET, plan=plan)
        assert_matches_golden(case, handed)
        assert sum(handed.kernel_dispatch.values()) > 0
        # Independent oracle: the same embedding set as brute force.
        assert sorted(engine_cls(graph, query).embeddings()) == sorted(
            brute_force_embeddings(graph, query)
        )


# ----------------------------------------------------------------------
# One pinned instance per join-kernel regime.
# ----------------------------------------------------------------------
def joined_kinds(engine):
    """The kernel kinds an SQ engine dispatched at least once."""
    return {kind for kind, count in engine.kernel_dispatch.items() if count}


def test_bitset_kernel_fires_and_stays_identical():
    """The depth the bitset kernel once served (two matched neighbors, a
    large pool) joins on both neighbor sets and reproduces its stream."""
    graph, query = dense_instance()
    plan = compile_plan(query, graph.index_cache())
    assert len(plan.backward[2]) == 2  # the triangle's last node has 2 backward
    assert len(plan.pool(plan.order[2])) >= 64  # the deleted gate's threshold
    for engine_cls in SQ_ENGINES.values():
        engine = engine_cls(graph, query, node_budget=SQ_BUDGET)
        assert_matches_golden("dense-bitset", engine)
        assert joined_kinds(engine) == {SCAN, MERGE}
    assert sorted(QSearchEngine(graph, query).embeddings()) == sorted(
        brute_force_embeddings(graph, query)
    )
    # The level engine's closing frame has one matched neighbor besides its
    # father, which localization already joined: one set probe, `scalar`.
    result = DSQL(graph, config=DSQLConfig(k=4, node_budget=200_000)).query(query)
    assert result.stats.kernel_bitset == 0 < result.stats.kernel_scalar


def test_cbitset_kernel_reproduces_plan_free_stream():
    """The twin-rich instance the class kernel once served: the plan asked
    for with harness 1.0's ignored ``use_compression`` keyword is the plain
    one, and it reproduces the stream."""
    graph, query = casting_instance()
    cache = graph.index_cache()
    plan = cache.plan_cache.get_or_compile(query, cache)
    assert cache.plan_cache.get_or_compile(query, cache, use_compression=True) is plan
    for engine_cls in SQ_ENGINES.values():
        engine = engine_cls(graph, query, node_budget=SQ_BUDGET, plan=plan)
        assert_matches_golden("twins-cbitset", engine)
        assert joined_kinds(engine) == {SCAN, MERGE}
        assert_matches_golden(
            "twins-cbitset", engine_cls(graph, query, node_budget=SQ_BUDGET)
        )


def test_merge_kernel_gallop_regime_reproduces_plan_free_stream():
    graph, query = skewed_instance()
    cache = graph.index_cache()
    plan = compile_plan(query, cache)
    hub_row = cache.adjacency_slice(SKEW_HUB)
    merge_pools = [
        len(plan.pool(u)) for u, backward in zip(plan.order, plan.backward) if backward
    ]
    assert SKEW_HUB in plan.pool(plan.order[0])  # the search roots at the hub
    # One MERGE depth on each side of the intersect_sorted crossover.
    assert any(len(hub_row) >= GALLOP_RATIO * size for size in merge_pools)
    assert any(len(hub_row) < GALLOP_RATIO * size for size in merge_pools)
    for engine_cls in SQ_ENGINES.values():
        engine = engine_cls(graph, query, node_budget=SQ_BUDGET)
        assert_matches_golden("skew-gallop", engine)
        assert engine.kernel_dispatch[MERGE] > 0
    assert sorted(QSearchEngine(graph, query).embeddings()) == sorted(
        brute_force_embeddings(graph, query)
    )


# ----------------------------------------------------------------------
# Random instances: both SQ engines against the brute-force oracle.
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    num_labels = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    graph = LabeledGraph(labels, edges)
    if graph.num_edges == 0:
        query = QueryGraph([labels[0]])
    else:
        from repro.queries.generator import random_query

        z = min(draw(st.integers(min_value=1, max_value=3)), graph.num_edges)
        query = None
        while z >= 1:
            try:
                query = random_query(graph, z, rng=rng)
                break
            except DatasetError:
                z -= 1
        if query is None:
            query = QueryGraph([labels[0]])
    k = draw(st.integers(min_value=1, max_value=5))
    return graph, query, k


@settings(max_examples=50, deadline=None)
@given(instances())
def test_plans_identical_on_random_instances(instance):
    graph, query, k = instance
    oracle = sorted(brute_force_embeddings(graph, query))
    plain = list(QSearchEngine(graph, query).embeddings())
    assert sorted(plain) == oracle
    # The switches prune failed subtrees only: each alone, and both together,
    # leave the ordered stream untouched.
    for backjump, skip_bad in ((True, False), (False, True), (True, True)):
        switches = {"conflict_backjumping": backjump, "bad_vertex_skipping": skip_bad}
        assert list(QSearchEngine(graph, query, **switches).embeddings()) == plain
    for factory in (DSQLConfig.dsql0, lambda kk: DSQLConfig(k=kk)):
        result = DSQL(graph, config=factory(k)).query(query)
        assert set(result.embeddings) <= set(oracle)
        assert len(result.embeddings) <= k
        assert bool(result.embeddings) == bool(oracle)
