"""Property tests: the join kernels against their scalar reference paths,
and the kernel kinds against what the engines dispatch.

Every kernel in :mod:`repro.kernels` must agree — contents *and* order —
with the naive computation it replaces: sorted-list intersection vs
set-membership filtering, neighbor-set intersection and bitset AND vs the
per-neighbor ``has_edge`` loop of ``is_joinable``. These tests pin that
contract on randomized inputs, including the gallop/merge regime crossover.
Every kind in ``KERNEL_KINDS`` but the harness-only ``cbitset`` names a
frame some count run reaches.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.qsearch import QSearchEngine
from repro.kernels import (
    GALLOP_RATIO,
    KERNEL_KINDS,
    bitset_and_members,
    bitset_members,
    bitset_of,
    intersect_sets,
    intersect_sorted,
)

ids = st.lists(st.integers(min_value=0, max_value=2_000), unique=True, max_size=200)


@given(ids, ids)
def test_intersect_sorted_matches_set_intersection(a, b):
    a, b = sorted(a), sorted(b)
    assert intersect_sorted(a, b) == sorted(set(a) & set(b))


@given(ids, ids)
def test_intersect_sorted_is_symmetric(a, b):
    a, b = sorted(a), sorted(b)
    assert intersect_sorted(a, b) == intersect_sorted(b, a)


@given(st.lists(st.integers(0, 50), unique=True, max_size=5), st.data())
def test_galloping_regime_matches(a, data):
    # Force the galloping branch: |b| >= GALLOP_RATIO * |a| and |a| small.
    a = sorted(a)
    needed = max(GALLOP_RATIO * max(len(a), 1), 1)
    b = sorted(
        data.draw(
            st.lists(
                st.integers(0, 10_000), unique=True, min_size=needed, max_size=needed + 40
            )
        )
    )
    assert len(b) >= GALLOP_RATIO * max(len(a), 1)
    assert intersect_sorted(a, b) == sorted(set(a) & set(b))


def test_intersect_sorted_empty_sides():
    assert intersect_sorted([], [1, 2]) == []
    assert intersect_sorted((1, 2), ()) == []
    assert intersect_sorted([], []) == []


@given(ids)
def test_bitset_roundtrip(vertices):
    mask = bitset_of(vertices)
    assert bitset_members(mask) == sorted(vertices)


@given(st.lists(ids, min_size=1, max_size=4))
def test_bitset_and_members_matches_set_intersection(sets):
    expected = set(sets[0])
    for s in sets[1:]:
        expected &= set(s)
    masks = [bitset_of(s) for s in sets]
    assert bitset_and_members(*masks) == sorted(expected)


def test_bitset_and_members_empty_is_identity():
    # AND over zero masks would be the all-ones identity, whose members are
    # infinite: no mask, no members.
    assert bitset_and_members() == []


@given(st.lists(st.integers(0, 300), unique=True, min_size=1, max_size=6))
def test_joinable_kernel_folds_and(members):
    # The engines' fold is a set intersection; it answers what folding the
    # same sets as bitsets by AND answers.
    sets = [{m} | set(members) for m in members]
    expected = -1
    for s in sets:
        expected &= bitset_of(s)
    assert bitset_of(intersect_sets(*sets)) == expected
    assert intersect_sets(*sets) == bitset_and_members(*map(bitset_of, sets))


class CountingPool(frozenset):
    """A pool's frozenset view that counts the times it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_intersect_sets_never_walks_a_big_pool():
    """A neighbor key view ``&`` a frozenset walks the frozenset whole, so
    the fold must start from a ``set`` copy of its first (smallest) operand:
    a ``set`` ``&`` either operand walks the smaller side."""
    graph = LabeledGraph(["a"] * 5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    pool = CountingPool(range(100_000))
    assert intersect_sets(graph.neighbor_set(0), pool) == [1, 2, 3]
    assert intersect_sets(graph.neighbor_set(0), graph.neighbor_set(1), pool) == [2]
    assert pool.walks == 0


def _random_graph(rng: random.Random, n: int = 60, p: float = 0.15) -> LabeledGraph:
    labels = [f"L{rng.randrange(3)}" for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return LabeledGraph(labels, edges)


@pytest.mark.parametrize("seed", range(8))
def test_mask_and_matches_scalar_joinable_loop(seed):
    """The engine invariant: one intersection of the matched vertices'
    neighbor sets == per-neighbor has_edge.

    For a random graph and a random set of "matched neighbor vertices" S
    (a partial assignment's image), the level engine's fold
    (``_fold_join``) and the AND of their adjacency masks must answer
    exactly like the scalar loop for every probe vertex v.
    """
    rng = random.Random(seed)
    graph = _random_graph(rng)
    cache = graph.index_cache()
    size = rng.randrange(1, 5)
    matched = rng.sample(range(graph.num_vertices), size)
    joined = set(graph.vertices()).intersection(*map(graph.neighbor_set, matched))
    masked = bitset_and_members(*(cache.adjacency_mask(w) for w in matched))
    assert sorted(joined) == masked
    for v in range(graph.num_vertices):
        assert (v in joined) == all(graph.has_edge(v, w) for w in matched)


@pytest.mark.parametrize("seed", range(4))
def test_adjacency_mask_matches_adjacency_slice(seed):
    rng = random.Random(100 + seed)
    graph = _random_graph(rng, n=40, p=0.2)
    cache = graph.index_cache()
    for v in range(graph.num_vertices):
        assert bitset_members(cache.adjacency_mask(v)) == list(cache.adjacency_slice(v))


def test_kernel_kinds_are_distinct():
    assert len(set(KERNEL_KINDS)) == len(KERNEL_KINDS) == 5


def clique_graph(n: int = 40, p: float = 0.5, seed: int = 3) -> LabeledGraph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return LabeledGraph(["X"] * n, edges)


K4 = QueryGraph(["X"] * 4, list(combinations(range(4), 2)))
TRIANGLE_WITH_TAIL = QueryGraph(["X"] * 4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def test_bitset_counts_frames_that_join_two_sets():
    """``bitset`` counts the level engine's frames that intersect two or more
    neighbor sets besides the father's, which localization already joined:
    a triangle's closing frame probes one set (``scalar``), a K4's last
    frame intersects two."""
    graph = clique_graph()
    tail = DSQL(graph, DSQLConfig(k=4)).query(TRIANGLE_WITH_TAIL).stats
    assert tail.kernel_bitset == 0 < tail.kernel_scalar
    k4 = DSQL(graph, DSQLConfig(k=4)).query(K4).stats
    assert k4.kernel_bitset > 0


def dispatch_counts(kinds):
    """Per kind, what a DSQL and an SQ run over a K4 query dispatched."""
    graph = clique_graph()
    stats = DSQL(graph, DSQLConfig(k=4)).query(K4).stats
    engine = QSearchEngine(graph, K4, node_budget=20_000)
    list(engine.embeddings())
    return {
        kind: getattr(stats, f"kernel_{kind}", 0) + engine.kernel_dispatch.get(kind, 0)
        for kind in kinds
    }


def test_every_kernel_kind_dispatches():
    """A kind no count run reaches names nothing; ``cbitset`` is the one
    exception, kept at 0 because perfbench harness 1.0 reads every kind
    (``tests/guard_tables.py::HARNESS_ONLY``)."""
    from tests.guard_tables import HARNESS_ONLY

    assert "cbitset/kernel_cbitset" in HARNESS_ONLY
    counts = dispatch_counts(KERNEL_KINDS + ("phantom",))
    assert [kind for kind in KERNEL_KINDS if not counts[kind]] == ["cbitset"]
    # A kind added with nothing that dispatches it is seen.
    assert [kind for kind, n in counts.items() if not n] == ["cbitset", "phantom"]
