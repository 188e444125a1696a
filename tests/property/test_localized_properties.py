"""Property gate: the localized candidates and the compiled frames *are* their
definitions.

``CandidateIndex.localized(u, fv)`` replaced a row walk in the level engine
and the baselines with a C-level filter of ``fv``'s row by the plan's pool
set; Section 5.1 defines it as the father's sorted neighbor row filtered by
``candS(u)``. The property holds the two equal for every father match the
search could ask about at three checkpoints: the graph as built; after a
script of ``add_edge`` / ``remove_edge`` / ``add_vertex``, which rewrite the
rows in place; and after ``compact()``, which only restarts ``delta_size``.

The lists live on the pool memo's entry, shared by every plan over the
pool from its first ask, and nothing repairs them: a write drops exactly the
lists it changed, and evicts the plans over its dirty labels. A second
property warms plans through the ``PlanCache`` and holds every list the
index cache keeps to the row filter after each write of a script, and no
cached plan to a label the write dirtied. Its script also rewires a vertex
in one batch — one edge removed, one to a vertex of the same label added —
so its degree and mask hold while two lists next to it change.

``QueryPlan.frames(query, qovp)`` replaced a ``reSort`` per Qovp per level
per query and the per-frame reads of its statistics; the third property
holds every compiled frame to ``resort`` and the Section 5.2 definitions.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.query_graph import QueryGraph
from repro.indexes.candidates import CandidateIndex
from repro.queries.qflist import resort
from tests.property.test_qsearch_properties import sq_instances

script_steps = st.one_of(
    st.tuples(st.sampled_from(["add_edge", "remove_edge"]), st.integers(0, 16), st.integers(0, 16)),
    st.tuples(st.just("add_vertex"), st.sampled_from(["L0", "L1", "L2"])),
)


def assert_localized_is_the_row_filter(graph, query):
    # A fresh view per graph version: its memo is not repaired by a write.
    view = CandidateIndex(graph, query)
    plan = view.plan
    for u, father, *_ in plan.frames(query, ())[2:]:
        pool = plan.pool_set(u)
        for fv in plan.pools[father]:
            want = tuple(w for w in graph.neighbors(fv) if w in pool)
            assert view.localized(u, fv) == want, (u, fv)
            assert view.localized(u, fv) is view.localized(u, fv)


@settings(max_examples=80, deadline=None)
@given(sq_instances(), st.lists(script_steps, max_size=12))
def test_localized_equals_row_filter_in_every_storage_state(instance, script):
    graph, query = instance
    assert_localized_is_the_row_filter(graph, query)  # as built
    for op in script:
        if op[0] == "add_vertex":
            graph.add_vertex(op[1])
        elif op[1] != op[2] and max(op[1:]) < graph.num_vertices:
            getattr(graph, op[0])(op[1], op[2])
    assert_localized_is_the_row_filter(graph, query)  # rows rewritten
    graph.compact()
    assert_localized_is_the_row_filter(graph, query)  # a checkpoint changes nothing


rewires = st.tuples(st.just("rewire"), st.integers(0, 16), st.integers(0, 16), st.integers(0, 16))


def apply_write(graph, op):
    """Apply one script step as one batch, its vertex ids taken modulo the
    graph's size; returns the vertices it touched."""
    if op[0] == "add_vertex":
        return [graph.add_vertex(op[1])]
    n = graph.num_vertices
    if op[0] == "rewire":  # v trades neighbor a for a b of a's label
        v, a, i = op[1] % n, op[2] % n, op[3]
        if not graph.has_edge(v, a):
            return []
        peers = [
            b for b in range(n)
            if graph.label(b) == graph.label(a) and b != v and not graph.has_edge(v, b)
        ]
        if not peers:
            return []
        b = peers[i % len(peers)]
        graph.mutate([("remove_edge", v, a), ("add_edge", v, b)], compaction_threshold=None)
        return [v, a, b]
    u, v = op[1] % n, op[2] % n
    return [u, v] if u != v and getattr(graph, op[0])(u, v) else []


def warm_plans(graph, queries):
    """View each query's plan and ask every list a frame could (any query
    neighbor may be the father), so every pool asked keeps a filled memo."""
    for query in queries:
        view = CandidateIndex(graph, query)
        plan = view.plan
        for u in range(query.size):
            for w in query.neighbors(u):
                for fv in plan.pools[w]:
                    view.localized(u, fv)


def assert_cached_lists_are_the_row_filters(graph, dirty_lids):
    cache = graph.index_cache()
    for plan in list(cache.plan_cache._memo.values()):
        assert not plan.referenced_lids & dirty_lids, plan.key
    for key, entry in cache._pool_memo.items():
        pool = set(entry.members)
        for fv, hit in entry.lists.items():
            assert hit == tuple(w for w in graph.neighbors(fv) if w in pool), (key, fv)


@settings(max_examples=80, deadline=None)
@given(sq_instances(), st.lists(st.one_of(script_steps, rewires), max_size=12))
def test_a_surviving_plans_lists_are_never_stale(instance, script):
    graph, query = instance
    # The query and its one-edge pieces: plans over fewer labels survive more writes.
    queries = [query] + [
        QueryGraph([query.label(a), query.label(b)], [(0, 1)]) for a, b in query.edges()
    ]
    warm_plans(graph, queries)
    for op in script:
        touched = apply_write(graph, op)
        dirty = frozenset(graph.label_to_id[graph.label(v)] for v in touched)
        assert_cached_lists_are_the_row_filters(graph, dirty)
        warm_plans(graph, queries)


@settings(max_examples=80, deadline=None)
@given(sq_instances())
def test_frames_equal_resort_and_the_rm_definitions(instance):
    graph, query = instance
    plan = CandidateIndex(graph, query).plan
    q = query.size
    for level in range(q):
        for qovp in combinations(plan.qlist, level):
            qf = resort(query, list(plan.qlist), set(qovp))
            order, *frames = plan.frames(query, qovp)
            assert list(order) == [e.node for e in qf.entries]
            assert len(frames) == q
            for depth, (u, father, is_overlap, cap, backward) in enumerate(frames):
                entry = qf.entries[depth]
                assert (u, father) == (entry.node, entry.father)
                assert is_overlap == (u in qovp)
                capped = not is_overlap and qf.neighbor_rm[u] == 0
                assert cap == (qf.label_rm[u] + 1 if capped else None)
                assert backward == tuple(
                    w for w in query.neighbors(u) if w in order[:depth]
                )
            assert plan.frames(query, qovp) is plan.frames(query, tuple(reversed(qovp)))
