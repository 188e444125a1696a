"""Integration tests for the Section 5 worked examples (Figures 3-5).

These pin the optimization machinery to the paper's own traces:
Example 3 (localized candidates via qfList fathers), Examples 4-5
(labelRm/neighborRm and the candidate cap), Example 6 (conflict tables),
Example 7 (bad-vertex skipping). The two adversarial fixtures are
complementary by construction: figure4's failure conflicts exclude the
fan-out node (so §5.3 node skipping collapses it), figure5's failure
conflicts include it (so only §5.4 bad-vertex marks help).
"""

from __future__ import annotations

from repro.core.config import DSQLConfig
from repro.core.phase1 import run_phase1
from repro.core.state import SearchStats
from repro.datasets.paper_figures import figure3, figure4, figure5
from repro.graph.validation import validate_embedding
from repro.indexes.candidates import CandidateIndex
from repro.queries.ordering import selectivity_order
from repro.queries.qflist import resort


def run(graph, query, config):
    stats = SearchStats()
    out = run_phase1(graph, query, config, CandidateIndex(graph, query), stats)
    return out, stats


class TestExample3LocalizedSearch:
    def test_qflist_fathers_localize_hub_children(self):
        graph, query = figure3()
        idx = CandidateIndex(graph, query)
        qlist = selectivity_order(query, idx)
        qf = resort(query, qlist)
        # Every non-root node's father must be adjacent in Q so candidates
        # shrink to a matched neighborhood.
        for entry in qf.entries[1:]:
            assert query.has_edge(entry.node, entry.father)

    def test_embedding_found_through_hub(self):
        graph, query = figure3()
        out, _ = run(graph, query, DSQLConfig(k=3))
        assert len(out.state) >= 1
        for emb in out.state.embeddings:
            validate_embedding(graph, query, emb)

    def test_example4_rm_values(self):
        """Example 4's table: labelRm(u7) = 1 when u7 precedes u4; the hub
        u1 has neighborRm = 4 when it is ranked first."""
        graph, query = figure3()
        qf = resort(query, [0, 4, 5, 6, 2, 1, 3])
        assert qf.entries[0].node == 0
        assert qf.neighbor_rm[0] == 4
        # u7 (index 6) shares label "d" with u4 (index 3); if u7 is ranked
        # before u4, labelRm(u7) = 1 and labelRm(u4) = 0.
        if qf.rank[6] < qf.rank[3]:
            assert qf.label_rm[6] == 1
            assert qf.label_rm[3] == 0


class TestExample6ConflictTables:
    def test_conflict_skipping_collapses_the_fan(self):
        graph, query = figure4(width=60)
        base, s_base = run(graph, query, DSQLConfig.dsql0(5))
        conf, s_conf = run(graph, query, DSQLConfig.dsql2(5))
        # Same answers...
        assert sorted(map(sorted, base.state.embeddings)) == sorted(
            map(sorted, conf.state.embeddings)
        )
        # ...at an order-of-magnitude less backtracking.
        assert s_conf.nodes_expanded * 5 < s_base.nodes_expanded
        assert s_conf.conflict_skips > 0

    def test_bad_vertices_do_not_help_here(self):
        """figure4's backjump target is skipped outright, so §5.4 adds
        nothing on top of §5.3 — the complementarity the ablation plots."""
        graph, query = figure4(width=60)
        _, s2 = run(graph, query, DSQLConfig.dsql2(5))
        _, s3 = run(graph, query, DSQLConfig.dsql3(5))
        assert s3.nodes_expanded == s2.nodes_expanded

    def test_embedding_still_found(self):
        graph, query = figure4(width=60)
        out, _ = run(graph, query, DSQLConfig(k=5))
        assert len(out.state) == 1


class TestExample7BadVertices:
    def test_bad_vertex_marks_collapse_the_rescan(self):
        graph, query = figure5(width=30, teasers=15)
        base, s_base = run(graph, query, DSQLConfig.dsql2(5))
        bad, s_bad = run(graph, query, DSQLConfig.dsql3(5))
        assert sorted(map(sorted, base.state.embeddings)) == sorted(
            map(sorted, bad.state.embeddings)
        )
        assert s_bad.nodes_expanded * 5 < s_base.nodes_expanded
        assert s_bad.bad_vertices_marked > 0
        assert s_bad.bad_vertex_skips > 0

    def test_conflict_tables_do_not_help_here(self):
        """figure5's failure conflicts include the fan node, so §5.3 alone
        saves nothing — the converse complementarity."""
        graph, query = figure5(width=30, teasers=15)
        _, s0 = run(graph, query, DSQLConfig.dsql0(5))
        _, s2 = run(graph, query, DSQLConfig.dsql2(5))
        assert s2.nodes_expanded == s0.nodes_expanded

    def test_good_embedding_found_despite_fanout(self):
        graph, query = figure5(width=30, teasers=15)
        out, _ = run(graph, query, DSQLConfig(k=3))
        assert len(out.state) == 1
        validate_embedding(graph, query, out.state.embeddings[0])

    def test_dsqlh_also_valid(self):
        graph, query = figure5(width=30, teasers=15)
        out, _ = run(graph, query, DSQLConfig.dsqlh(3))
        for emb in out.state.embeddings:
            validate_embedding(graph, query, emb)

    def test_marks_cleared_between_roots(self):
        """Bad marks are scoped to the prefix that justified them: the good
        root's embedding must be found even though the same c-depth
        accumulated marks under the bad root."""
        graph, query = figure5(width=10, teasers=5)
        out, stats = run(graph, query, DSQLConfig.dsql3(5))
        assert len(out.state) == 1
        assert stats.bad_vertices_marked > 0
