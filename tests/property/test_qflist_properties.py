"""Property-based tests for qfList construction (Section 5.1).

The last property holds the one-pass ``reSort`` — ``resort_order`` over a
``resort_basis``, read by ``resort`` and by ``QueryPlan.frames`` — to the
definition it replaced, kept below verbatim: a ``sorted`` per node of the
breadth-first walk, and ``labelRm`` / ``neighborRm`` counted over every
pair of nodes.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.query_graph import QueryGraph
from repro.indexes.graph_cache import PoolEntry
from repro.indexes.plans import QueryPlan
from repro.queries.ordering import rank_of
from repro.queries.qflist import NO_FATHER, QFEntry, QFList, resort, validate_qflist


@st.composite
def queries_and_overlaps(draw):
    """A random connected query, a random qlist order, a random overlap set."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=9999)))
    labels = [rng.choice("abc") for _ in range(n)]
    # Random spanning tree + extra edges keeps the query connected.
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    query = QueryGraph(labels, sorted(edges))
    qlist = list(range(n))
    rng.shuffle(qlist)
    overlap_size = draw(st.integers(min_value=0, max_value=n - 1))
    qovp = set(rng.sample(range(n), overlap_size))
    return query, qlist, qovp


@settings(max_examples=120, deadline=None)
@given(queries_and_overlaps())
def test_resort_structural_invariants(case):
    query, qlist, qovp = case
    qf = resort(query, qlist, qovp)
    validate_qflist(query, qf)


@settings(max_examples=80, deadline=None)
@given(queries_and_overlaps())
def test_root_is_first_overlap_or_qlist_head(case):
    query, qlist, qovp = case
    qf = resort(query, qlist, qovp)
    expected_root = next((u for u in qlist if u in qovp), qlist[0])
    assert qf.entries[0].node == expected_root
    assert qf.entries[0].father == NO_FATHER


@settings(max_examples=80, deadline=None)
@given(queries_and_overlaps())
def test_rm_statistics_match_definitions(case):
    query, qlist, qovp = case
    qf = resort(query, qlist, qovp)
    q = query.size
    for u in range(q):
        expected_label = sum(
            1
            for w in range(q)
            if qf.rank[w] > qf.rank[u] and query.label(w) == query.label(u)
        )
        expected_neighbor = sum(
            1 for w in query.neighbors(u) if qf.rank[w] > qf.rank[u]
        )
        assert qf.label_rm[u] == expected_label
        assert qf.neighbor_rm[u] == expected_neighbor


@settings(max_examples=80, deadline=None)
@given(queries_and_overlaps())
def test_degree_one_nodes_trail(case):
    """Every degree-1 non-root node ranks after every higher-degree node."""
    query, qlist, qovp = case
    qf = resort(query, qlist, qovp)
    root = qf.entries[0].node
    leaf_ranks = [
        qf.rank[u]
        for u in range(query.size)
        if query.degree(u) == 1 and u != root
    ]
    trunk_ranks = [
        qf.rank[u]
        for u in range(query.size)
        if query.degree(u) != 1 or u == root
    ]
    if leaf_ranks and trunk_ranks:
        assert min(leaf_ranks) > max(trunk_ranks)


# ----------------------------------------------------------------------
# The definition as oracle: ``resort`` and ``_with_statistics`` as they
# were before the one-pass compile, and the frame rows the plan derived
# from them.
# ----------------------------------------------------------------------
def reference_resort(
    query: QueryGraph,
    qlist: Sequence[int],
    qovp: Set[int] = frozenset(),
) -> QFList:
    ranks = rank_of(qlist)
    root = next((u for u in qlist if u in qovp), qlist[0])

    entries: List[QFEntry] = [QFEntry(root, NO_FATHER)]
    placed: Set[int] = {root}
    cursor = 0
    while len(entries) < query.size:
        u = entries[cursor].node
        neighbors = sorted(
            (w for w in query.neighbors(u) if w not in placed),
            key=lambda w: (w not in qovp, ranks[w], w),
        )
        for w in neighbors:
            entries.append(QFEntry(w, u))
            placed.add(w)
        cursor += 1

    # The root must stay first even when it has degree 1 — its children's
    # localization depends on the father being matched before them.
    trunk = [e for e in entries if e.father == NO_FATHER or query.degree(e.node) != 1]
    leaves = [e for e in entries if e.father != NO_FATHER and query.degree(e.node) == 1]
    ordered = tuple(trunk + leaves)

    return _with_statistics(query, ordered)


def _with_statistics(query: QueryGraph, entries: Tuple[QFEntry, ...]) -> QFList:
    """Attach rank, labelRm and neighborRm tables to an entry order."""
    q = query.size
    rank = [0] * q
    for r, entry in enumerate(entries):
        rank[entry.node] = r

    label_rm = [0] * q
    neighbor_rm = [0] * q
    for entry in entries:
        u = entry.node
        label_rm[u] = sum(
            1
            for other in range(q)
            if rank[other] > rank[u] and query.label(other) == query.label(u)
        )
        neighbor_rm[u] = sum(1 for w in query.neighbors(u) if rank[w] > rank[u])

    return QFList(
        entries=entries,
        rank=tuple(rank),
        label_rm=tuple(label_rm),
        neighbor_rm=tuple(neighbor_rm),
    )


def reference_rows(query: QueryGraph, qf: QFList, qovp) -> tuple:
    """The frames ``(node, father, is_overlap, cap, backward)`` read off ``qf``."""
    rows = []
    for depth, e in enumerate(qf.entries):
        u = e.node
        overlap = u in qovp
        single = not overlap and qf.neighbor_rm[u] == 0
        cap = qf.label_rm[u] + 1 if single else None
        backward = tuple(w for w in query.neighbors(u) if qf.rank[w] < depth)
        rows.append((u, e.father, overlap, cap, backward))
    return tuple(rows)


@st.composite
def shaped_queries(draw):
    """A connected query and a qlist order: random, a star or a cycle on 1–8
    nodes (so one node and one edge too), over one to three labels (so
    labels repeat), and now and then a degree-1 node at the head of qlist."""
    shape = draw(st.sampled_from(["random", "star", "cycle"]))
    n = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=9999)))
    alphabet = "abc"[: rng.randint(1, 3)]
    labels = [rng.choice(alphabet) for _ in range(n)]
    if shape == "star":
        edges = {(0, v) for v in range(1, n)}
    elif shape == "cycle":
        edges = {(v, v + 1) for v in range(n - 1)} | ({(0, n - 1)} if n >= 3 else set())
    else:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
    query = QueryGraph(labels, sorted(edges))
    qlist = list(range(n))
    rng.shuffle(qlist)
    leaves = [u for u in qlist if query.degree(u) == 1]
    if leaves and draw(st.booleans()):
        qlist.remove(leaves[0])
        qlist.insert(0, leaves[0])
    return query, qlist


@settings(max_examples=150, deadline=None)
@given(shaped_queries())
def test_resort_and_frames_equal_the_reference_on_every_qovp(case):
    query, qlist = case
    plan = QueryPlan(None, qlist, (), (), (), [PoolEntry(())] * query.size, ())
    for level in range(query.size + 1):
        for qovp in combinations(qlist, level):
            want = reference_resort(query, qlist, set(qovp))
            got = resort(query, qlist, set(qovp))
            order, *frames = plan.frames(query, qovp)
            # The compiled rows are the reference's, bool for bool.
            assert repr(tuple(frames)) == repr(reference_rows(query, want, qovp)), qovp
            # ``resort`` is the reference, statistics included.
            assert got == want, qovp
            # The engine and the baselines read one reSort.
            assert list(order) == [e.node for e in got.entries], qovp
