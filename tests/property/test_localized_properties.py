"""Property gate: the localized candidates and the compiled frames *are* their
definitions.

``CandidateIndex.localized(u, fv)`` replaced a row walk in the level engine
and the baselines with a C-level intersection of the storage's hash set and
the plan's pool set; Section 5.1 defines it as the father's sorted neighbor
row filtered by ``candS(u)``. The property holds the two equal for every
father match the search could ask about, wherever the row lives: in the
frozen arrays, in the mutation overlay after ``add_edge`` / ``remove_edge``
/ ``add_vertex``, and in the arrays again after ``compact()``.

``QueryPlan.frames(query, qovp)`` replaced a ``reSort`` per Qovp per level
per query and the per-frame reads of its statistics; the second property
holds every compiled frame to ``resort`` and the Section 5.2 definitions.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

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
            want = [w for w in graph.neighbors(fv) if w in pool]
            assert view.localized(u, fv) == want, (u, fv)
            assert view.localized(u, fv) is view.localized(u, fv)


@settings(max_examples=80, deadline=None)
@given(sq_instances(), st.lists(script_steps, max_size=12))
def test_localized_equals_row_filter_in_every_storage_state(instance, script):
    graph, query = instance
    assert_localized_is_the_row_filter(graph, query)  # rows in the frozen arrays
    for op in script:
        if op[0] == "add_vertex":
            graph.add_vertex(op[1])
        elif op[1] != op[2] and max(op[1:]) < graph.num_vertices:
            getattr(graph, op[0])(op[1], op[2])
    assert_localized_is_the_row_filter(graph, query)  # touched rows in the overlay
    graph.compact()
    assert_localized_is_the_row_filter(graph, query)  # merged back


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
            assert list(order) == qf.node_order()
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
