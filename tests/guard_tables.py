"""Tables and readers that the lint guards share with other tests.

``tests/test_lint.py`` holds the guards; a test elsewhere that needs one of
their tables or readers imports it from here, never from the lint module,
so collecting it does not import the whole guard layer (the lint test
``test_no_test_imports_the_lint_module`` holds that).
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Harness-only names: perfbench's harness (``perfbench/harness/layers.py``,
# ``workloads.py`` and ``inputs.py``) imports, reads, passes or sends these,
# so they stay until it stops; nothing in ``src/`` may, outside the row's
# home. One row per name: how a use looks in the AST, and a mutant — a line
# pasted after an anchor in a real module, as ``tests/test_lint.py`` shapes
# every mutant row — that the check must see.
# ----------------------------------------------------------------------
HARNESS_ONLY = {
    # row: (kind of use, names, home, "harness", file, anchor, pasted after it, its report)
    "QueryPlan.cand_mask": (
        "attribute", ("cand_mask",), (), "harness",
        "src/repro/indexes/plans.py", "    u = plan.order[depth]\n",
        "    mask = plan.cand_mask(u)\n", ["indexes/plans.py:{line}: QueryPlan.cand_mask"],
    ),
    "GraphIndexCache.adjacency_mask": (
        "attribute", ("adjacency_mask",), (), "harness",
        "src/repro/core/search.py", "        self.stats.kernel_bitset += 1\n",
        "        masks = [self.graph.index_cache().adjacency_mask(v) for v in rcand]\n",
        ["core/search.py:{line}: GraphIndexCache.adjacency_mask"],
    ),
    "GraphIndexCache.adjacency_slice": (
        "attribute", ("adjacency_slice",), (), "harness",
        "src/repro/isomorphism/qsearch.py", "        u = self.order[depth]\n",
        "        row = self.candidates.cache.adjacency_slice(u)\n",
        ["isomorphism/qsearch.py:{line}: GraphIndexCache.adjacency_slice"],
    ),
    "bitset_and_members": (
        "name", ("bitset_and_members",), ("kernels/",), "harness",
        "src/repro/indexes/plans.py", "from repro.kernels import bitset_of, intersect_sets\n",
        "from repro.kernels import bitset_and_members\n",
        ["indexes/plans.py:{line}: bitset_and_members"],
    ),
    "intersect_sorted/GALLOP_RATIO": (
        "name", ("intersect_sorted", "GALLOP_RATIO"), ("kernels/",), "harness",
        "src/repro/isomorphism/qsearch.py", "from repro.kernels import KERNEL_KINDS, MERGE, SCAN\n",
        "from repro.kernels.join import GALLOP_RATIO\n",
        ["isomorphism/qsearch.py:{line}: intersect_sorted/GALLOP_RATIO"],
    ),
    "get_or_compile(use_compression=)": (
        "keyword", ("get_or_compile(use_compression=)",), (), "harness",
        "src/repro/core/dsql.py",
        "        return self.index_cache.plan_cache.get_or_compile(query, self.index_cache)\n",
        "        self.index_cache.plan_cache.get_or_compile(query, self.index_cache,"
        " use_compression=True)\n",
        ["core/dsql.py:{line}: get_or_compile(use_compression=)"],
    ),
    # A class constant ``False``: no field, so no session can set it.
    "DSQLConfig.use_compression": (
        "attribute", ("config.use_compression",), (), "harness",
        "src/repro/core/search.py", "        self._cap_singles = config.single_embedding_mode\n",
        "        self._twins = config.use_compression\n",
        ["core/search.py:{line}: DSQLConfig.use_compression"],
    ),
    # A class constant ``None``: no wire field carries it.
    "QueryRequest.use_compression": (
        "attribute", ("request.use_compression",), (), "harness",
        "src/repro/service/server.py", "            entry = self.catalog.get(request.graph)\n",
        "            assert request.use_compression is None\n",
        ["service/server.py:{line}: QueryRequest.use_compression"],
    ),
    "request_config(use_compression=)": (
        "keyword", ("request_config(use_compression=)",), (), "harness",
        "src/repro/service/server.py",
        "        config = entry.request_config(**config_overrides(request, BATCH_SPEC))\n",
        "        config = entry.request_config(use_compression=False)\n",
        ["service/server.py:{line}: request_config(use_compression=)"],
    ),
    # The kind stays in KERNEL_KINDS and the counter in SearchStats, always 0.
    "cbitset/kernel_cbitset": (
        "name", ("CBITSET", "kernel_cbitset"), ("kernels/", "core/state.py"), "harness",
        "src/repro/core/search.py", "        self.stats.kernel_bitset += 1\n",
        "        self.stats.kernel_cbitset += 1\n",
        ["core/search.py:{line}: cbitset/kernel_cbitset"],
    ),
    # Accepted and ignored by ``LabeledGraph.mutate`` and ``CatalogEntry.mutate``.
    "mutate(compaction_threshold=)": (
        "keyword", ("mutate(compaction_threshold=)",), (), "harness",
        "src/repro/service/server.py", "        summary = entry.mutate(request.ops)\n",
        "        summary = entry.mutate(request.ops, compaction_threshold=1)\n",
        ["service/server.py:{line}: mutate(compaction_threshold=)"],
    ),
    # A class constant ``None``: no field, so no request carries one.
    "MutationRequest.compaction_threshold": (
        "attribute", ("request.compaction_threshold",), (), "harness",
        "src/repro/service/server.py", "        entry, request = probe.entry, probe.request\n",
        "        threshold = request.compaction_threshold\n",
        ["service/server.py:{line}: MutationRequest.compaction_threshold"],
    ),
    # The ingest body's field: checked (an integer >= 1, or absent) and dropped.
    "ingest compaction_threshold": (
        "string", ("compaction_threshold",), ("service/schemas.py",), "harness",
        "src/repro/service/server.py", "        entry, request = probe.entry, probe.request\n",
        '        threshold = payload.get("compaction_threshold")\n',
        ["service/server.py:{line}: ingest compaction_threshold"],
    ),
    # A class constant ``False``: no field, so no batch reports one.
    "MutationSummary.compacted": (
        "attribute", ("summary.compacted",), (), "harness",
        "src/repro/service/schemas.py", '        "applied": summary.applied,\n',
        '        "compacted": summary.compacted,\n',
        ["service/schemas.py:{line}: MutationSummary.compacted"],
    ),
    # The response's key, always ``false``.
    "response compacted": (
        "string", ("compacted",), ("service/schemas.py",), "harness",
        "src/repro/cli.py", "            body = client.ingest(args.graph, ops)\n",
        '            compacted = body.get("compacted")\n', ["cli.py:{line}: response compacted"],
    ),
    # The removed thread batch strategy, accepted as an alias of serial.
    "BatchExecutor thread alias": (
        "string", ("thread",), ("parallel/executor.py",), "harness",
        "src/repro/service/server.py",
        "        results, report = entry.answer_batch(request.queries, config)\n",
        '        entry.answer_batch(request.queries, config, strategy="thread")\n',
        ["service/server.py:{line}: BatchExecutor thread alias"],
    ),
}


# ----------------------------------------------------------------------
# docs/service.md's "Errors" table: the wire's ``(status, code)`` pairs.
# ----------------------------------------------------------------------
def service_status_rows(text: str = "") -> set:
    """``{(status, code)}`` of the table under docs/service.md's "Errors"
    (or under that heading of ``text``)."""
    text = text or (REPO / "docs" / "service.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Errors\n"):]
    section = section[: section.index("\n## ", 1)]
    return {
        (int(status), code)
        for status, codes in re.findall(r"^\| (\d{3}) \| ([^|]*) \|", section, re.M)
        for code in re.findall(r"`([a-z_]+)`", codes)
    }
