"""Unit tests for :mod:`repro.queries.qflist`."""

from __future__ import annotations

import pytest

from repro.graph.query_graph import QueryGraph
from repro.queries.qflist import NO_FATHER, resort, validate_qflist


@pytest.fixture()
def star_query():
    # u0 center (label a), u1..u4 leaves (b, b, c, c).
    return QueryGraph(["a", "b", "b", "c", "c"], [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture()
def path_query5():
    return QueryGraph(["a", "b", "c", "b", "a"], [(0, 1), (1, 2), (2, 3), (3, 4)])


class TestResortStructure:
    def test_root_is_qlist_first_without_overlap(self, star_query):
        qf = resort(star_query, [0, 1, 2, 3, 4])
        assert qf.entries[0].node == 0
        assert qf.entries[0].father == NO_FATHER

    def test_root_is_first_overlap_node(self, star_query):
        qf = resort(star_query, [0, 1, 2, 3, 4], qovp={3})
        assert qf.entries[0].node == 3

    def test_fathers_adjacent_and_precede(self, star_query, path_query5):
        for q in (star_query, path_query5):
            qf = resort(q, list(range(q.size)))
            validate_qflist(q, qf)

    def test_every_node_once(self, path_query5):
        qf = resort(path_query5, [2, 0, 4, 1, 3])
        assert sorted(e.node for e in qf.entries) == list(range(5))

    def test_degree_one_nodes_shifted_to_end(self, path_query5):
        # Path endpoints u0 and u4 have degree 1.
        qf = resort(path_query5, [1, 0, 2, 3, 4])
        tail = [e.node for e in qf.entries[-2:]]
        assert set(tail) == {0, 4}

    def test_degree_one_root_stays_first(self, path_query5):
        qf = resort(path_query5, [0, 1, 2, 3, 4])
        assert qf.entries[0].node == 0
        validate_qflist(path_query5, qf)

    def test_single_node_query(self):
        q = QueryGraph(["a"])
        qf = resort(q, [0])
        assert len(qf) == 1
        validate_qflist(q, qf)

    def test_single_edge_query(self):
        q = QueryGraph(["a", "b"], [(0, 1)])
        qf = resort(q, [1, 0])
        validate_qflist(q, qf)
        assert qf.entries[0].node == 1

    def test_overlap_neighbors_ranked_before_others(self):
        # Triangle + pendant; overlap = {1, 2} should surface early.
        q = QueryGraph(["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 2), (2, 3)])
        qf = resort(q, [0, 1, 2, 3], qovp={1, 2})
        order = [e.node for e in qf.entries]
        assert order.index(1) < order.index(3)
        assert order.index(2) < order.index(3)


class TestRmStatistics:
    def test_label_rm_counts_later_same_labels(self, star_query):
        qf = resort(star_query, [0, 1, 2, 3, 4])
        order = [e.node for e in qf.entries]
        for u in range(5):
            expected = sum(
                1
                for w in range(5)
                if qf.rank[w] > qf.rank[u] and star_query.label(w) == star_query.label(u)
            )
            assert qf.label_rm[u] == expected, (u, order)

    def test_neighbor_rm_counts_later_neighbors(self, star_query):
        qf = resort(star_query, [0, 1, 2, 3, 4])
        # The center is first, so all 4 leaves come later.
        assert qf.neighbor_rm[0] == 4
        # Leaves have their only neighbor (the center) earlier.
        for leaf in (1, 2, 3, 4):
            assert qf.neighbor_rm[leaf] == 0

    def test_last_node_rm_zero(self, path_query5):
        qf = resort(path_query5, [0, 1, 2, 3, 4])
        last = qf.entries[-1].node
        assert qf.label_rm[last] == 0
        assert qf.neighbor_rm[last] == 0

    def test_rank_is_inverse_of_entries(self, path_query5):
        qf = resort(path_query5, [4, 3, 2, 1, 0])
        for r, entry in enumerate(qf.entries):
            assert qf.rank[entry.node] == r


class TestValidateQflist:
    def test_detects_missing_node(self, star_query):
        qf = resort(star_query, [0, 1, 2, 3, 4])
        broken = qf.__class__(
            entries=qf.entries[:-1],
            rank=qf.rank,
            label_rm=qf.label_rm,
            neighbor_rm=qf.neighbor_rm,
        )
        with pytest.raises(ValueError, match="covers nodes"):
            validate_qflist(star_query, broken)
