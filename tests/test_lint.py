"""Lint gates: ruff over the source tree, the stdlib's ``ast`` in its place,
the docs gates, and the guards that keep deleted code deleted.

Every file is read, and every module parsed and walked, once a run (the
source index below). A guard is a ``GUARDS`` entry: the test that runs it
and its parts — ``FORBIDDEN`` rows (names no shipped file may hold),
``CENSUS`` rules (where a kind of node may be) and checks of its own. Every
mutant a guard must see is a row of ``STAYS_DELETED``, ``HARNESS_ONLY`` (in
``tests/guard_tables.py``), ``GUARD_MUTANTS`` or ``COUNT_MUTANTS``, each
ending in one shape — (test or guard, file from the root, anchor, text
pasted after it, expected report) — and ``tests/tools/guard_kills.py``
pastes each into a scratch copy of the tree to show that its test fails
there."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import functools
import importlib.metadata
import importlib.util
import inspect
import json
import py_compile
import re
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from tests.guard_tables import HARNESS_ONLY, service_status_rows

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
FUTURE_IMPORT = "from __future__ import annotations\n"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# ----------------------------------------------------------------------
# The source index: a file is read once, a module parsed and walked once.
# Trees are cached by source text, so a mutant (a new text) is parsed fresh
# and a real module never twice; no lint may change a cached tree.
# ----------------------------------------------------------------------
CACHES = []


def cached(function):
    """``function`` memoized until this module's tests end."""
    CACHES.append(functools.lru_cache(maxsize=None)(function))
    return CACHES[-1]


@pytest.fixture(scope="module", autouse=True)
def release_the_index():
    """The index serves this module; the rest of a run does not hold it."""
    yield
    for cache in CACHES:
        cache.cache_clear()


@cached
def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


@cached
def files(tree: str, pattern: str = "*.py") -> Tuple[Path, ...]:
    """Every file matching ``pattern`` under ``REPO / tree``, sorted."""
    return tuple(sorted((REPO / tree).rglob(pattern)))


@cached
def walked(text: str) -> Tuple[ast.AST, ...]:
    """Every node of ``text``'s tree in ``ast.walk`` order, the module first."""
    return tuple(ast.walk(ast.parse(text)))


@cached
def nodes(text: str, *types) -> Tuple[ast.AST, ...]:
    """``text``'s nodes of the given types, in ``ast.walk`` order."""
    return tuple(node for node in walked(text) if isinstance(node, types))


@cached
def owners(text: str) -> Dict[int, str]:
    """``{id(node): qualified name}`` over ``text``'s tree: a def or class is
    named by itself, any other node by its innermost def or class."""
    names = {}

    def visit(node, chain):
        for child in ast.iter_child_nodes(node):
            inner = chain + (child.name,) if isinstance(child, DEFS) else chain
            names[id(child)] = ".".join(inner) or "<module>"
            visit(child, inner)

    visit(walked(text)[0], ())
    return names


def texts(*trees: str, pattern: str = "*.py") -> Dict[str, str]:
    """``{path from the repository root: text}`` for the files of ``trees``."""
    return {str(p.relative_to(REPO)): read(p) for tree in trees for p in files(tree, pattern)}


def under(sources: Dict[str, str], prefix: str) -> Dict[str, str]:
    return {path: text for path, text in sources.items() if path.startswith(prefix)}


def package(sources: Dict[str, str]) -> Dict[str, str]:
    """The package's modules among ``{path from the root: text}``, keyed by
    their path under src/repro."""
    prefix = "src/repro/"
    return {path.removeprefix(prefix): text for path, text in under(sources, prefix).items()}


LINTED_TREES = ("src", "tests", "benchmarks", "examples")
ROOT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def guard_sources() -> Dict[str, str]:
    """What the guards read, keyed by path from the root: every module of
    ``LINTED_TREES``, every doc under docs/ and .claude/, and the ``ROOT_DOCS``."""
    roots = {name: read(REPO / name) for name in ROOT_DOCS}
    docs = {**texts("docs", pattern="*.md"), **texts(".claude", pattern="*.md")}
    return {**texts(*LINTED_TREES), **docs, **roots}


# ----------------------------------------------------------------------
# Forbidden names: what a deleted fork, copy or workaround was called. No
# file the guards read but tests/ (the root docs, src/, docs/, benchmarks/,
# examples/, .claude/) may hold one, or none the row's glob matches. The
# test that keeps a row says what it protects.
# ----------------------------------------------------------------------
FORBIDDEN = {
    # row: (where: a glob over paths from the root, the names)
    "plan_free_fork": ("*", ("use_plans", "no-plan-cache", "plan is None", "plan is not None")),
    "backend_fork": ("*", (
        "SetBackend", "make_backend", "default_backend",  # also catches set_default_backend
        "with_backend", "backend_name", "REPRO_GRAPH_BACKEND", "--backend", "BACKEND_NAMES",
    )),
    "evidence_fork": ("*", ("BENCH_", *(f"bench_{name}" for name in (
        "backend_microbench join_kernels parallel_microbench service_load multiworker objectives "
        "observability_overhead mutation cost compression"
    ).split()))),
    "engine_fork": ("*", ("OptimizedQSearchEngine", "isomorphism.optimized")),
    "global_weight_table": (
        "*", ("top_sum", "_sorted_desc", "max_weight", "_weight_version", "degree_array"),
    ),
    "adj_lock": ("*", ("_adj_lock",)),
    "frame_prologue": ("*", ("_rcand", "_kernel_join_test")),
    "search_probes_edges": ("src/repro/core/search.py", ("has_edge",)),
    "resort_in_plans": ("src/repro/indexes/plans.py", ("resort(",)),
    "class_search": ("*", (
        "_ClassSearch", "count_embeddings_compressed", "iter_embeddings_compressed",
        "enumerate_embeddings_compressed", "_iter_expansions", "lazy_expansions",
        "on_lazy_expansion",
    )),
    "plan_localized_memo": (
        "*", ("localized_memo(", ".localized_memo", "plan._localized", "QueryPlan._localized"),
    ),
    "restricted": ("*", ("def restricted", ".restricted(")),
    "pool_lists": ("*", ("_pool_lists", "pool_lists(")),
    "label_grouping": ("*", ("label_neighbors", "_grouped_rows", "_group_row")),
    "label_wide_list_drop": ("*", ("key[0] in dirty", ".lists.clear()")),
    "array_base": ("*", (
        "indptr", "indices", "neighbors_array", "has_edges", "has_edge_searchsorted",
        "touched_vertices", "searchsorted", "AttachedGraph",
    )),
    "shared_transport": ("*", (
        "shared_memory", "resource_tracker", "publish_graph", "attach_graph",
        "SharedGraphDescriptor", "PublishedGraph", "SHARED_FORMAT_VERSION", "to_arrays",
        "from_arrays", "shared_state", "SharedMemoryError",
    )),
    "storage_seam": ("*", (
        "CSRBackend", "from_backend", "_backend", ".backend", "normalize_edges", "_sorted_rows",
        "graph/csr.py", "graph.csr",
    )),
    "restamp": ("*", ("on_compaction", "_sync_epoch")),
    "catch_up": ("*", (
        "ops_since", "log_floor", "truncate_log", "_mutation_log", "def replay", ".replay(",
        "_apply_sync", "SyncHeader", "_base_seq",
    )),
    "pool_view": ("*", ("pool_view(", "_pool_views", "_pool_sets")),
    "pool_degree_mass": ("*", ("pool_degree_mass",)),
    "bench_copies": ("*", (
        "run_dsql_batch", "run_solver_batch", "com_adapter", "firstk_adapter",
        "ExperimentGrid", "FIG6_GRID", "FIG8_GRID",
    )),
    "bench_timing": ("benchmarks/bench_*", ("perf_counter", "QueryRecord", "BatchSummary(")),
    "profiling_hooks": ("*", (
        "ProfilingHooks", "observability.hooks", "on_level_start", "on_embedding_emitted",
        "on_deadline_tick", "embedding_emitted", "self.hooks",
    )),
    # What no product path entered: the networkx bridge, the frozenset
    # filter stack, second spellings of the Table 3 and Table 4 loops, thin
    # wrappers over a call their callers already make, and two generators
    # no dataset was built with.
    "test_only_surface": ("*", (
        "networkx", "passes_all_filters", "query_signature", "indexes.signature",
        "run_pipeline", "run_all_strategies", "PipelineResult", "first_k_embeddings",
        "enumerate_embeddings_optimized", "has_embedding", "compare_solvers",
        "iter_query_sets", "objective_coverage_bound", "build_candidate_index",
        "erdos_renyi_graph", "skewed_labels", "induced_match_subgraph", "matched_edges",
    )),
    "kernel_gates": ("*", (
        "BITSET_MIN_POOL", "CBITSET_MAX_RATIO", "class_pools", "class_mask", "_adj_masks",
        "DEFAULT_ADJACENCY_MEMO_SIZE", ".kernels[", "localized_search",
    )),
    # The names perfbench harness 1.0 reads are HARNESS_ONLY rows.
    "twin_compression": ("*", (
        "CompressedGraph", "isomorphism.compression", "compressed()", "_compressed",
        "class_join_mask", "joinable_kernel", "--compression", "compression.class_frames",
    )),
    # What harness 1.0 still sends or reads is a HARNESS_ONLY shim.
    "compaction": ("*", (
        "compact()", "def compact(", ".delta_size", "def delta_size", "_delta_edges",
        "DEFAULT_COMPACTION_THRESHOLD", "service.mutations.compactions",
        "--compaction-threshold", "args.compaction_threshold", 'payload["compaction_threshold"]',
    )),
    "wire_field_lists": ("*", (
        "_QUERY_FIELDS", "_BATCH_FIELDS", "_EDGE_FIELDS", "_INGEST_FIELDS", "_optional_int",
        "_optional_number", "_optional_objective", "_request_config",
    )),
    "control_plane": ("*", ("_ControlHandler", "_ControlHTTPServer", "BoundControlHandler")),
    "threading_server": ("src/repro/service/server.py", ("ThreadingHTTPServer", "ThreadingMixIn")),
    # Banned from its module alone: docs/performance.md tells the serve
    # loop's history.
    "serve_loop": ("src/repro/service/server.py", (
        "_handle_request_noblock", "process_request", "poll_interval",
    )),
    # No thread pool in the package, for connections or for batches: the
    # search holds the GIL (docs/performance.md keeps the measurement).
    "thread_pool": ("src/*", ("ThreadPoolExecutor",)),
    # The thread batch strategy and the wire's list of batch strategies.
    "thread_strategy": ("*", ("_dispatch_threads", "BATCH_STRATEGIES")),
    # A ratio helper no caller used, and the quadratic subset filter the
    # exact solver's bitmask bounds do without.
    "exact_ratio": ("*", ("exact_ratio",)),
    "drop_dominated": ("*", ("_drop_dominated",)),
    "memo_workarounds": ("*", (
        "_plan_searches", "_never_computed", "_executor_leases", "_executors_retired",
        "_acquire_executor", "_release_executor", "DEFAULT_EXECUTOR_CACHE", "max_executors",
        "use_degree_filter", "use_signature_filter",
        "._specs", '"_specs"',  # the attribute and its slot, not dump_specs / warm_from_specs
    )),
}


def forbidden(sources, *rows) -> List[str]:
    """``path: 'name'`` for each name of ``FORBIDDEN`` ``rows`` that a shipped
    file of ``sources`` the row's glob matches holds."""
    return [
        f"{path}: {name!r}"
        for where, names in map(FORBIDDEN.get, rows)
        for path, text in sources.items() if fnmatch(path, where) and path[:6] != "tests/"
        for name in names if name in text
    ]


# ----------------------------------------------------------------------
# The forbidden rows that carry a mutant — names some test, history doc or
# harness shim still spells — and a line pasted back after an anchor in a
# real module that the walker must see.
# ----------------------------------------------------------------------
LABELED = "src/repro/graph/labeled_graph.py"
CACHE = "src/repro/indexes/graph_cache.py"
EXECUTOR = "src/repro/parallel/executor.py"
EXACT = "src/repro/coverage/exact.py"
STAYS_DELETED = {
    # row: (test, file, anchor, pasted after it, the names the paste trips)
    "backend_fork": (
        "test_backend_fork_stays_deleted", LABELED, FUTURE_IMPORT,
        "backend = make_backend(backend_name)\n", ("make_backend", "backend_name"),
    ),
    "evidence_fork": (
        "test_evidence_fork_stays_deleted", "src/repro/cli.py", FUTURE_IMPORT,
        "SNAPSHOT = 'BENCH_mutation.json'\n", ("BENCH_",),
    ),
    "engine_fork": (
        "test_engine_fork_stays_deleted", "src/repro/isomorphism/qsearch.py", FUTURE_IMPORT,
        "from repro.isomorphism.optimized import OptimizedQSearchEngine\n",
        ("OptimizedQSearchEngine", "isomorphism.optimized"),
    ),
    "array_base": (
        "test_shared_memory_transport_stays_deleted", LABELED, "        self._sets = sets\n",
        "        import numpy as np\n        self.indices = np.empty(0, dtype=np.int32)\n",
        ("indices",),
    ),
    "shared_transport": (
        "test_shared_memory_transport_stays_deleted", "src/repro/parallel/pool.py",
        "import multiprocessing\n", "from multiprocessing import shared_memory\n",
        ("shared_memory",),
    ),
    "storage_seam": (
        "test_storage_seam_stays_deleted", LABELED, "        self._sets = sets\n",
        "        self._backend = CSRBackend(labels, edges)\n", ("CSRBackend", "_backend"),
    ),
    "restamp": (
        "test_epoch_is_stamped_once", CACHE, "        self.delta_seq = delta_seq\n",
        "        self._sync_epoch(epoch)\n", ("_sync_epoch",),
    ),
    "catch_up": (
        "test_catch_up_stays_deleted", CACHE, "            self.delta_seq += len(ops)\n",
        "            self._mutation_log.extend(ops)\n", ("_mutation_log",),
    ),
    "label_wide_list_drop": (
        "test_localization_stays_in_one_place", CACHE, "            self.delta_seq += len(ops)\n",
        "            for key in [key for key in self._pool_memo if key[0] in dirty_per_label]:\n"
        "                self._pool_memo[key].lists.clear()\n",
        ("key[0] in dirty", ".lists.clear()"),
    ),
    "test_only_surface": (
        "test_test_only_surface_stays_deleted", "src/repro/isomorphism/qsearch.py",
        "    return count, not engine.budget_exhausted\n",
        "\n\ndef first_k_embeddings(graph, query, k):\n"
        "    return enumerate_embeddings(graph, query, limit=k)\n",
        ("first_k_embeddings",),
    ),
    "kernel_gates": (
        "test_kernel_gates_stay_deleted", "src/repro/indexes/plans.py",
        "    u = plan.order[depth]\n", "    kind = plan.kernels[depth]\n", (".kernels[",),
    ),
    "twin_compression": (
        "test_twin_compression_stays_deleted", CACHE, "        return estimator\n",
        "        self._compressed = CompressedGraph(self.graph)\n",
        ("CompressedGraph", "_compressed"),
    ),
    "compaction": (
        "test_compaction_stays_deleted", LABELED,
        "        self.num_edges += 1 if present else -1\n", "        self._delta_edges += 1\n",
        ("_delta_edges",),
    ),
    "wire_field_lists": (
        "test_wire_field_lists_stay_deleted", "src/repro/service/schemas.py",
        '_GRAPH = FieldSpec("graph", "str", required=True)\n',
        "_QUERY_FIELDS = tuple(field.name for field in QUERY_SPEC)\n", ("_QUERY_FIELDS",),
    ),
    "serve_loop": (
        "test_a_connection_starts_no_thread", "src/repro/service/server.py",
        "import urllib.parse\n", "poll_interval = 0.5\n", ("poll_interval",),
    ),
    "thread_pool": (
        "test_thread_strategy_stays_deleted", EXECUTOR, "import os\n",
        "from concurrent.futures import ThreadPoolExecutor\n", ("ThreadPoolExecutor",),
    ),
    "thread_strategy": (
        "test_thread_strategy_stays_deleted", EXECUTOR, "        self._per_worker = ()\n",
        "        self._dispatch_threads = None\n", ("_dispatch_threads",),
    ),
    "exact_ratio": (
        "test_exact_solver_helpers_stay_deleted", EXACT,
        "    return best, [by_mask[m] for m in best_masks]\n",
        "\n\ndef exact_ratio(solution, embeddings, k):\n"
        "    return len(set().union(*solution)) / optimal_coverage(embeddings, k)[0]\n",
        ("exact_ratio",),
    ),
    "drop_dominated": (
        "test_exact_solver_helpers_stay_deleted", EXACT,
        "    sets = list(dict.fromkeys(map(project, embeddings)))\n",
        "    sets = _drop_dominated(sets)\n", ("_drop_dominated",),
    ),
}


def pasted(path: str, anchor: str, paste: str) -> Tuple[dict, int]:
    """What the guards read, with ``paste`` put after the one ``anchor`` in
    ``path``, and the line the paste starts on."""
    sources = guard_sources()
    text = sources[path]
    assert text.count(anchor) == 1, (path, anchor)
    cut = text.index(anchor) + len(anchor)
    return {**sources, path: text[:cut] + paste + text[cut:]}, text[:cut].count("\n") + 1


def assert_reported(owner, path, anchor, paste, report):
    """``owner`` (a guard, or any part ``offenders`` takes) reports
    ``report`` with ``paste`` put after ``anchor`` in ``path``, and no more."""
    sources, line = pasted(path, anchor, paste)
    assert offenders(owner, sources=sources) == [r.replace("{line}", str(line)) for r in report]


def assert_stays_deleted(row: str) -> None:
    """The row's names are gone from every shipped file its glob matches,
    and pasting its mutant back is seen."""
    _test, path, anchor, paste, tripped = STAYS_DELETED[row]
    assert not offenders(row)
    assert_reported(row, path, anchor, paste, [f"{path}: {n!r}" for n in tripped])


# ----------------------------------------------------------------------
# The site census: where a kind of node may be. A rule reads the modules
# its glob matches for the nodes of its types that pass its test. A site is
# ``path:name`` — the def or class holding the node, or the def or class
# itself — and a rule's sites are exactly the ones it expects, as many
# times each.
# ----------------------------------------------------------------------
LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)
GRAPH_CACHE = "indexes/graph_cache.py:GraphIndexCache."
SRC = "src/repro/*"


def called(node) -> str:
    """The name a call calls (``f`` of ``f()`` and ``x.f()``; '' for no call)."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", ""))


def named(node):
    """The name a ``Name`` reads or an ``Attribute`` names (None for other nodes)."""
    return getattr(node, "attr", getattr(node, "id", None))


def imported(node) -> List[str]:
    """The top-level modules an absolute import statement imports."""
    modules = [getattr(node, "module", None) or alias.name for alias in node.names]
    return [] if getattr(node, "level", 0) else [module.split(".")[0] for module in modules]


def loop_iters(node) -> str:
    """Source of what a ``for`` loop or comprehension iterates."""
    iters = [node.iter] if isinstance(node, ast.For) else [g.iter for g in node.generators]
    return " ".join(ast.unparse(i) for i in iters)


def assigned(node) -> set:
    """The attribute names an assignment writes (none for any other node)."""
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return {n.attr for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Attribute)}


def grows_its_walk(node) -> bool:
    """A ``for`` / ``while`` appending a ``(child, father)`` pair — a
    two-element tuple or two-argument call — to a list its header names."""
    header = node.iter if isinstance(node, ast.For) else node.test
    walked_names = {n.id for n in ast.walk(header) if isinstance(n, ast.Name)}
    return any(
        called(call) == "append" and ast.unparse(call.func.value) in walked_names
        and len(call.args) == 1
        and len(getattr(call.args[0], "elts", getattr(call.args[0], "args", ()))) == 2
        for call in ast.walk(node)
    )


CENSUS = {
    # rule: (where, node types, the test a node passes, the expected sites)
    # One backtracking core, and a frame's prologue in the frame.
    "budget raise": (
        SRC, (ast.Raise,), lambda n: called(n.exc) in ("BudgetExceeded", "DeadlineExceeded"),
        ["isomorphism/backtrack.py:ExpansionMeter.check"] * 2,
    ),
    "probe loop": (
        SRC, LOOPS, lambda n: "query.neighbors(" in loop_iters(n)
        and any(named(x) == "has_edge" for x in ast.walk(n)),
        ["isomorphism/joinable.py:joinable_ignoring_injectivity"],
    ),
    "search engine": (
        SRC, (ast.ClassDef,), lambda n: n.name.endswith("SearchEngine"),
        ["core/search.py:LevelSearchEngine", "isomorphism/qsearch.py:QSearchEngine"],
    ),
    "function in search": (
        "src/repro/core/search.py", (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef),
        lambda n: isinstance(n, ast.Lambda)
        or any(isinstance(i, DEFS[:2]) for s in n.body for i in ast.walk(s)),
        [],
    ),
    "conflict rule": (
        SRC, (ast.FunctionDef,), lambda n: n.name in ("_conflict_set", "_child_failed"),
        ["isomorphism/backtrack.py:ConflictDirectedSearch." + name
         for name in ("_conflict_set", "_child_failed")],
    ),
    # One reSort, and one §5.1.
    "father walk": (SRC, (ast.For, ast.While), grows_its_walk, ["queries/qflist.py:resort_order"]),
    "row walk": (
        SRC, LOOPS,
        lambda n: "graph.neighbors(" in loop_iters(n)
        and any(isinstance(x, (ast.In, ast.NotIn)) or named(x) == "is_candidate"
                for x in ast.walk(n)),
        ["queries/generator.py:_grow_query"],
    ),
    # numpy is imported by the dataset generators alone; nothing undeclared is.
    "numpy import": (
        SRC, (ast.Import, ast.ImportFrom), lambda n: "numpy" in imported(n),
        ["datasets/labels.py:<module>", "datasets/synthetic.py:<module>"],
    ),
    "undeclared import": (
        SRC, (ast.Import, ast.ImportFrom),
        lambda n: any(
            module not in sys.stdlib_module_names and module not in installed_modules()[0]
            for module in imported(n) if module != "repro"
        ),
        [],
    ),
    # One version that only counts, read by the cache alone.
    "epoch stamp": (
        SRC, ASSIGNS + (ast.Call,),
        lambda n: "epoch" in assigned(n)
        or called(n) == "next" and ast.unparse(n) == "next(_EPOCHS)",
        [GRAPH_CACHE + "__init__"] * 2,
    ),
    "version reset": (
        SRC, ASSIGNS + (ast.Call,),
        lambda n: "delta_seq" in assigned(n) and ast.unparse(n.value) == "0"
        or called(n) == "clear" and ast.unparse(n.func).endswith("plan_cache.clear"),
        [],
    ),
    "delta_seq read": (
        SRC, (ast.Attribute,), lambda n: n.attr == "delta_seq" and isinstance(n.ctx, ast.Load),
        [GRAPH_CACHE + n for n in ("entry_lists", "keep_list", "memoize", "memoize", "version")],
    ),
    # The memo lock lives on the memo.
    "memo names": (
        SRC, (ast.Attribute, ast.Name), lambda n: named(n) in ("_query_cache", "_memo_lock"),
        ["core/dsql.py:DSQL." + name
         for name in ("__init__", "_memo_answer", "_memo_lacks", "_memo_lookup")] * 2,
    ),
    "catalog lock": (
        "src/repro/service/catalog.py", (ast.Call,), lambda n: called(n) in ("Lock", "RLock"),
        ["service/catalog.py:CatalogEntry.__init__"],
    ),
    # A pool is summed where it lives; the cost probe is a reader; a query
    # says its own neighbourhood signature.
    "pool view": (
        SRC, (ast.Call,),
        lambda n: called(n) == "frozenset" and n.args
        and any(word in ast.unparse(n.args[0]) for word in ("pool", "members")),
        ["indexes/graph_cache.py:PoolEntry.set_view"],
    ),
    "degree read": (
        "src/repro/cost/*", (ast.Subscript, ast.Attribute),
        lambda n: (isinstance(n, ast.Subscript) or n.attr == "__getitem__")
        and ast.unparse(n.value).endswith("degrees"),
        [],
    ),
    "catalog reader": (
        "src/repro/service/catalog.py", (ast.Call,),
        lambda n: called(n) in ("acquire_read", "release_read", "estimate"),
        ["service/catalog.py:CatalogEntry." + name for name in (
            "answer", "answer", "answer_batch", "answer_batch", *["estimate_cost"] * 3
        )],
    ),
    "own signature": (
        "src/repro/graph/query_graph.py", (ast.FunctionDef, ast.Call),
        lambda n: getattr(n, "name", "") == "neighborhood_signature" or called(n) == "index_cache",
        ["graph/query_graph.py:QueryGraph.neighborhood_signature"],
    ),
    # A warm hit's price and bytes are kept, never patched.
    "encoded write": (
        SRC, (ast.Attribute,), lambda n: n.attr == "encoded" and isinstance(n.ctx, ast.Store),
        ["service/server.py:_WarmRecord.hit"],
    ),
    "encoded read": (
        SRC, (ast.Attribute,), lambda n: n.attr == "encoded" and isinstance(n.ctx, ast.Load),
        ["service/server.py:_ServiceHandler._send_json"],
    ),
    "state written in place": (
        "src/repro/cost/calibration.py", (ast.Attribute, ast.Call),
        lambda n: called(n) == "setattr"
        or isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and ast.unparse(n.value) != "self",
        [],
    ),
    # The data graph stays out of the cyclic collector.
    "set in storage": (
        LABELED, (ast.Set, ast.SetComp, ast.Call),
        lambda n: isinstance(n, (ast.Set, ast.SetComp)) or called(n) in ("set", "frozenset"),
        [f"graph/labeled_graph.py:LabeledGraph.{n}" for n in ("label_set", "induced_subgraph")],
    ),
    "intersection over views": (
        SRC, (ast.Call,),
        lambda n: called(n) == "intersection"
        and any("neighbor_set" in ast.unparse(arg) for arg in n.args),
        [],
    ),
    # No test imports the lint module.
    "lint import": (
        "tests/*", (ast.Import, ast.ImportFrom), lambda n: "test_lint" in ast.unparse(n), [],
    ),
}


@cached
def sites_in(rule: str, path: str, text: str) -> Tuple[str, ...]:
    """``path:name`` (the path under src/repro for a package module) of every
    node ``rule`` finds in the module ``path`` holding ``text``."""
    _where, types, test, _expected = CENSUS[rule]
    site = path.removeprefix("src/repro/") + ":"
    return tuple(site + owners(text)[id(node)] for node in nodes(text, *types) if test(node))


def sites(sources, rule) -> List[str]:
    where = CENSUS[rule][0]
    return [
        site for path, text in sources.items() if path.endswith(".py") and fnmatch(path, where)
        for site in sites_in(rule, path, text)
    ]


def offenders(*parts, sources=None) -> List[str]:
    """What ``parts`` report over ``sources`` (default: what the guards read).
    A part is a ``FORBIDDEN`` row (a name found), a ``CENSUS`` rule (``rule:
    +site`` for a site beyond it, ``rule: -site`` for one missing), a
    ``GUARDS`` entry (its parts) or a check of ``sources``."""
    sources = guard_sources() if sources is None else sources
    found = []
    for part in parts:
        if callable(part):
            found += part(sources)
        elif part in CENSUS:
            got, want = Counter(sites(sources, part)), Counter(CENSUS[part][3])
            found += [f"{part}: +{site}" for site in sorted((got - want).elements())]
            found += [f"{part}: -{site}" for site in sorted((want - got).elements())]
        elif part in GUARDS:
            found += offenders(*GUARDS[part][1:], sources=sources)
        else:
            found += forbidden(sources, part)
    return found


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks", "examples"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Line width, with the stdlib alone (ruff may not be installed): no line of
# a module of ``LINTED_TREES`` is wider than the ``line-length`` that
# pyproject.toml gives ruff.
# ----------------------------------------------------------------------
LINE_LENGTH = int(re.search(r"^line-length = (\d+)$", read(REPO / "pyproject.toml"), re.M)[1])


def wide_lines(sources: Dict[str, str]) -> List[str]:
    return [
        f"{path}:{number}: {len(line)} columns"
        for path, text in sources.items()
        if path.endswith(".py") and path.split("/", 1)[0] in LINTED_TREES
        for number, line in enumerate(text.splitlines(), 1)
        if len(line) > LINE_LENGTH
    ]


def test_lines_fit_the_ruff_width():
    assert wide_lines(guard_sources()) == []


# ----------------------------------------------------------------------
# Unused imports, with the stdlib alone (ruff may not be installed): every
# name an import binds in a module of ``LINTED_TREES`` is read somewhere in
# that module, re-exported by its ``__all__`` or named by a quoted
# annotation.
# ----------------------------------------------------------------------
def per_file(sources: Dict[str, str], lint) -> List[str]:
    """``path:hit`` for every hit of ``lint`` over the Python files of ``sources``."""
    return [
        f"{path}:{hit}" for path, text in sources.items() if path.endswith(".py")
        for hit in lint(text)
    ]


def parameters(function) -> list:
    """Every parameter of a def or lambda, ``*args`` and ``**kwargs`` included."""
    args = function.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg for arg in every if arg is not None]


def quoted_annotation_names(text) -> set:
    """Names read inside the string annotations of ``text``."""
    annotations = [node.annotation for node in nodes(text, ast.AnnAssign)]
    for node in nodes(text, ast.FunctionDef, ast.AsyncFunctionDef):
        annotations += [arg.annotation for arg in parameters(node)] + [node.returns]
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


@cached
def unused_imports(text: str) -> Tuple[str, ...]:
    """``line: name`` for every name an import in ``text`` binds and the
    module never uses."""
    bound = []
    for node in nodes(text, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    used = {node.id for node in nodes(text, ast.Name)} | quoted_annotation_names(text)
    for node in nodes(text, ast.Assign):
        if "__all__" in [ast.unparse(t) for t in node.targets]:
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return tuple(f"{line}: {name}" for name, line in bound if name not in used)


def test_no_unused_imports():
    assert per_file(texts(*LINTED_TREES), unused_imports) == []
    # A name counts as used when ``__all__`` or a quoted annotation is its
    # only reader.
    for reader in ('__all__ = ["chain"]\n', 'def f(x: "chain") -> None:\n    pass\n'):
        assert unused_imports("from itertools import chain\n" + reader) == ()


# ----------------------------------------------------------------------
# Undefined names, with the stdlib alone (ruff's F821): every name a module
# of ``LINTED_TREES`` reads — in code, in an annotation, or inside a quoted
# one — is bound at module level (an import, def, class or assignment), in
# an enclosing class or function, or is a builtin. Under ``from __future__
# import annotations`` nothing evaluates an annotation, so a missing import
# read only there would otherwise never fail.
# ----------------------------------------------------------------------
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
MODULE_ATTRIBUTES = {
    "__file__", "__name__", "__doc__", "__spec__", "__loader__", "__package__", "__path__",
    "__builtins__", "__annotations__",
}


def scope_bindings(scope) -> set:
    """Names bound directly in ``scope`` (a module, def, lambda or class);
    a comprehension's targets count as its enclosing scope's."""
    names = set()
    if not isinstance(scope, (ast.Module, ast.ClassDef)):
        names |= {arg.arg for arg in parameters(scope)}
    stack = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES):
            names |= {getattr(node, "name", "")}  # a nested scope binds its name, no more
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names |= set(node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            names.add(node.rest)
        stack.extend(ast.iter_child_nodes(node))
    return names


@cached
def undefined_names(text: str) -> Tuple[str, ...]:
    """``line: name`` for every name ``text`` reads that nothing binds."""
    tree = walked(text)[0]
    module = scope_bindings(tree)
    module |= {name for node in nodes(text, ast.Global) for name in node.names}
    known = set(dir(builtins)) | MODULE_ATTRIBUTES
    found = []

    def resolve(name, line, chain):
        if name not in known and not any(name in scope for scope in chain):
            found.append(f"{line}: {name}")

    def visit(node, chain, annotation=False):
        if isinstance(node, SCOPES):
            # Decorators, defaults and bases are read in the enclosing scope.
            outer = list(getattr(node, "decorator_list", []))
            if isinstance(node, ast.ClassDef):
                outer += node.bases + [keyword.value for keyword in node.keywords]
            else:
                outer += node.args.defaults + [d for d in node.args.kw_defaults if d]
            for child in outer:
                visit(child, chain)
            inner = chain + [scope_bindings(node)]
            if not isinstance(node, ast.ClassDef):
                hints = [arg.annotation for arg in parameters(node)]
                for hint in [*hints, getattr(node, "returns", None)]:
                    if hint is not None:
                        visit(hint, inner, annotation=True)
            for child in [node.body] if isinstance(node, ast.Lambda) else node.body:
                visit(child, inner)
        elif isinstance(node, ast.AnnAssign):
            visit(node.annotation, chain, annotation=True)
            for child in (node.target, node.value):
                if child is not None:
                    visit(child, chain)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            resolve(node.id, node.lineno, chain)
        elif annotation and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name in ast.walk(ast.parse(node.value, mode="eval")):
                if isinstance(name, ast.Name):
                    resolve(name.id, node.lineno, chain)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, chain, annotation)

    visit(tree, [module])
    return tuple(found)


def test_no_undefined_names():
    assert per_file(texts(*LINTED_TREES), undefined_names) == []
    # The scan reads quoted annotations and class scopes. Its mutant is a
    # row of GUARD_MUTANTS.
    assert undefined_names('def f(x: "List[int]") -> None:\n    pass\n') == ("1: List",)
    assert undefined_names("class A:\n    B = 1\n    C = B\n") == ()


def test_sources_compile():
    """Cheap always-on stand-in for the lint gate: every file compiles.

    In-process, so no bytecode is written: ``python -m py_compile`` writes
    ``__pycache__`` even under ``PYTHONDONTWRITEBYTECODE``, and a checkout
    holding bytecode imports faster than one that does not."""
    paths = [*(REPO / "src").rglob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    paths += (REPO / "examples").glob("*.py")
    for path in paths:
        compile(path.read_bytes(), str(path), "exec", dont_inherit=True)


def test_bench_modules_import():
    """Every ``benchmarks/*.py`` imports (its names resolve) without
    running a bench function, so a stale helper import fails here and not
    at the next paper run."""
    modules = sorted(p.stem for p in (REPO / "benchmarks").glob("*.py"))
    script = (
        "import importlib, sys\n"
        f"sys.path[:0] = [{str(REPO / 'benchmarks')!r}, {str(REPO / 'src')!r}]\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def import_offenders(sources):
    """``path: module.name`` for every name a ``from repro... import`` in
    ``{path: source}`` asks of a module that neither defines it nor has it
    as a submodule."""
    found = []
    for path, text in sources.items():
        for node in nodes(text, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            found += [
                f"{path}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name != "*" and not hasattr(module, alias.name)
                and importlib.util.find_spec(f"{node.module}.{alias.name}") is None
            ]
    return found


def test_example_imports_resolve():
    """Byte-compiling an example does not import it: a name deleted from the
    package would leave its example broken, silently."""
    examples = texts("examples")
    assert examples and not import_offenders(examples)


# ----------------------------------------------------------------------
# Docs gate: every ```python block in the documentation must stay valid
# Python, so examples cannot rot silently when APIs move.
# ----------------------------------------------------------------------
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def extract_python_blocks(text: str) -> List[str]:
    """The contents of every ````` ```python ````` fenced block, in order."""
    return re.findall(r"^[ \t]*```python[ \t]*\n(.*?)^[ \t]*```", text, re.M | re.S)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_python_snippets_compile(doc: Path, tmp_path: Path):
    blocks = extract_python_blocks(read(doc))
    for i, block in enumerate(blocks):
        snippet = tmp_path / f"{doc.stem}_{i}.py"
        snippet.write_text(block + "\n", encoding="utf-8")
        try:
            py_compile.compile(str(snippet), doraise=True)
        except py_compile.PyCompileError as exc:
            raise AssertionError(
                f"{doc.name} python block #{i} does not compile:\n{block}\n{exc}"
            ) from None


# ----------------------------------------------------------------------
# Gate-coverage guards: the globs above are recursive/implicit, so a
# rename could silently drop a tree from the gates. Each pins what one PR
# added: its modules, and its doc with a python block for the gate to see.
# ----------------------------------------------------------------------
def assert_compile_gated(*modules: str, tree: str = "", names=()):
    """Every module of ``src/repro/<tree>`` (which holds ``names``) and every
    module named (under src/repro) exists and is under the compile gate."""
    members = sorted((PACKAGE / tree).rglob("*.py")) if tree else []
    assert members or not tree, f"{tree} package missing from src/repro"
    assert set(names) <= {p.name for p in members}
    gated = set(files("src"))
    for module in [*members, *(PACKAGE / m for m in modules)]:
        assert module.exists(), f"{module} missing"
        assert module in gated


def assert_docs_gated(name: str):
    doc = REPO / "docs" / name
    assert doc.exists(), f"docs/{name} missing"
    assert doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(read(doc))


def test_compile_gate_covers_service_package():
    service = {"admission.py", "catalog.py", "client.py", "schemas.py", "server.py"}
    assert_compile_gated(tree="service", names=service)


def test_docs_gate_covers_service_doc():
    assert_docs_gated("service.md")


def test_compile_gate_covers_objectives_module():
    assert_compile_gated("coverage/objectives.py")


def test_docs_gate_covers_objectives_doc():
    assert_docs_gated("objectives.md")


def test_service_tests_collected_from_testpaths():
    tests_dir = REPO / "tests" / "service"
    assert (tests_dir / "__init__.py").exists()
    assert sorted(p.name for p in tests_dir.glob("test_*.py")) == [
        "test_accesslog.py",
        "test_admission.py",
        "test_catalog.py",
        "test_concurrency.py",
        "test_cost_admission.py",
        "test_multiworker.py",
        "test_mutation.py",
        "test_schemas.py",
        "test_server.py",
        "test_warm_record.py",
        "test_wire.py",
    ]


def test_compile_gate_covers_shared_memory_modules():
    """The two modules that start worker processes with a graph (the id is
    from the shared-memory transport they once went through) stay under the
    compile gate."""
    assert_compile_gated("parallel/pool.py", "service/multiworker.py")


def test_docs_gate_covers_parallel_doc():
    assert_docs_gated("parallel.md")


def test_docs_gate_covers_mutation_doc():
    # The mutation contract ships runnable examples; the gate must see them.
    assert_docs_gated("mutation.md")


def test_compile_gate_covers_cost_package():
    """The cost-estimation PR's tree stays under the compile gate."""
    cost = {"__init__.py", "calibration.py", "estimator.py"}
    assert_compile_gated("service/accesslog.py", tree="cost", names=cost)


def test_docs_gate_covers_cost_doc():
    assert_docs_gated("cost.md")


def test_compile_gate_covers_mutation_surface():
    """The live-mutation PR's load-bearing modules stay under the compile
    gate (and exist — a rename must not silently drop the write path)."""
    assert_compile_gated("graph/labeled_graph.py", "indexes/graph_cache.py", "indexes/plans.py")


def test_compile_gate_covers_compression_surface():
    """The twin-compression PR's modules that stay are under the compile
    gate; its own module is gone (``STAYS_DELETED["twin_compression"]``)."""
    assert not (PACKAGE / "isomorphism" / "compression.py").exists()
    assert_compile_gated(
        "kernels/join.py", "indexes/plans.py", "indexes/graph_cache.py", "datasets/synthetic.py"
    )


def test_docs_gate_covers_performance_doc():
    assert_docs_gated("performance.md")


# ----------------------------------------------------------------------
# Fork guard: compiled plans are the only engine path. The plan-free
# fork, its two config knobs and its CLI flag must not grow back.
# ----------------------------------------------------------------------
def test_plan_free_fork_stays_deleted():
    from repro.core.config import DSQLConfig

    assert not offenders("plan_free_fork")
    assert not {f.name for f in dataclasses.fields(DSQLConfig)} & {"use_plans", "plan_cache"}


def test_wire_field_lists_stay_deleted():
    assert_stays_deleted("wire_field_lists")


# ----------------------------------------------------------------------
# Fork guard: one graph storage class. The ``set`` backend and every way
# of selecting a backend must not grow back.
# ----------------------------------------------------------------------
def test_backend_fork_stays_deleted():
    from repro.graph import GraphBuilder, LabeledGraph, QueryGraph
    from repro.graph.io import load_edge_list, load_json, load_query

    assert_stays_deleted("backend_fork")
    loaders = (load_edge_list, load_json, load_query)
    for fn in (LabeledGraph.__init__, QueryGraph.__init__, GraphBuilder.build, *loaders):
        assert "backend" not in inspect.signature(fn).parameters, fn.__qualname__


# ----------------------------------------------------------------------
# Fork guard: one source of evidence. perfbench measures speed, tier-1
# tests hold counts; the ten engineering bench scripts and the JSON
# snapshots they overwrote at the repository root must not grow back.
# ----------------------------------------------------------------------
PAPER_BENCHES = "appb1 appb2 fig6 fig7 fig8 fig9 sec5 sec72 table1 table2 table3 table4".split()


def test_evidence_fork_stays_deleted():
    assert_stays_deleted("evidence_fork")
    assert not sorted(p.name for p in REPO.glob("BENCH_*"))
    benches = sorted(p.stem.split("_")[1] for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert benches == PAPER_BENCHES


# ----------------------------------------------------------------------
# Fork guard: one implementation of the paper's evaluation. Numbers,
# timing and records come from repro.experiments; a bench script chooses
# inputs, renders and asserts shapes (SNIPPETS.md 2: run scripts apart
# from evaluation). The bench suite's batch loops and adapters and the
# unread grid class stay deleted.
# ----------------------------------------------------------------------
def test_bench_copies_stay_deleted():
    assert not offenders("bench_copies")


def test_bench_scripts_time_nothing():
    assert not offenders("bench_timing")


def test_evidence_ledger_names_resolve():
    """docs/performance.md, "Where the evidence lives": every backticked name
    in a row's last cell is a ``BENCHMARK.json`` metric or workload, or a
    path (``file`` or ``file::Class::test``) that exists and defines it."""
    spec = json.loads(read(REPO / "BENCHMARK.json"))
    known = {m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    known |= {w["name"] for w in spec["workloads"]}
    text = read(REPO / "docs" / "performance.md")
    section = text.split("## Where the evidence lives", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    rows = [row for row in rows if row[0].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(1, 45))
    assert sum(row[3] == "dropped" for row in rows) == 7
    for number, _, _, now, where in rows:
        names = re.findall(r"`([^`]+)`", where)
        paths = [name for name in names if "/" in name]
        unknown = [name for name in names if "/" not in name and name not in known]
        assert not unknown, (number, unknown)
        for path, *parts in (name.split("::") for name in paths):
            assert (REPO / path).is_file(), (number, path)
            if parts:
                defined = {getattr(node, "name", None) for node in walked(read(REPO / path))}
                assert set(parts) <= defined, (number, path, parts)
        if now == "carried":
            assert len(names) > len(paths), number
        elif now == "held":
            assert any("::" in name for name in paths), number
        else:
            assert now == "dropped" and names, number


# ----------------------------------------------------------------------
# Fork guard: one backtracking core. The second plain-SQ engine class must
# not grow back, and src/ pays for an expansion, probes the deadline and
# spells the scalar join loop in exactly one place each.
# ----------------------------------------------------------------------
def test_engine_fork_stays_deleted():
    assert_stays_deleted("engine_fork")
    assert not (PACKAGE / "isomorphism" / "optimized.py").exists()
    assert not offenders("engines")


# ----------------------------------------------------------------------
# Fork guard: a frame's prologue lives in the frame. The per-frame helper
# calls (candidate hop, closure-building join test) must not grow back, the
# level engine builds no function and probes no edge itself, and the budget
# errors and the conflict rule keep their one home in ``backtrack.py``.
# ----------------------------------------------------------------------
def test_frame_prologue_stays_folded():
    from repro.core.config import DSQLConfig

    assert not offenders("frame_prologue", "frame")
    assert len(dataclasses.fields(DSQLConfig)) == 18


# ----------------------------------------------------------------------
# Fork guard: one reSort. The breadth-first father walk lives in
# ``queries/qflist.py`` (``resort_order``); a second one, as
# ``QueryPlan.frames`` once ran through ``resort``, must not grow back.
# ----------------------------------------------------------------------
def test_resort_walks_in_one_place():
    assert not offenders("resort")


# ----------------------------------------------------------------------
# Fork guard: one implementation of Section 5.1. ``N(father's match) ∩
# candS(u)`` is ``CandidateIndex.localized``, memoized on the pool's memo
# entry (the memos and drops before it stay deleted); no engine, baseline or
# index walks a neighbor row asking membership per element.
# ----------------------------------------------------------------------
def test_localization_stays_in_one_place():
    assert not offenders("localization")
    assert not offenders("restricted", "plan_localized_memo", "pool_lists", "label_grouping")
    assert_stays_deleted("label_wide_list_drop")


# ----------------------------------------------------------------------
# Fork guard: a graph reaches a worker process by starting it (fork
# inherits, spawn pickles). The shared-memory transport, its CSR format and
# the array base must not grow back: the storage holds exactly the views the
# engine reads, and nothing under ``graph/`` imports numpy.
# ----------------------------------------------------------------------
STORAGE_SLOTS = sorted((
    "labels", "num_edges", "label_table", "label_to_id",
    "_rows", "_degrees", "_sets", "_label_ids", "_cache", "name",
))


def test_shared_memory_transport_stays_deleted():
    from repro.graph import LabeledGraph
    from repro.parallel import WorkerPool

    assert_stays_deleted("shared_transport")
    assert_stays_deleted("array_base")
    assert not (PACKAGE / "graph" / "shared.py").exists()
    assert not offenders("numpy import")
    assert sorted(LabeledGraph.__slots__) == STORAGE_SLOTS
    # The one survivor, kept for the frozen benchmark harness: a property
    # that says how much shared memory a pool holds. None.
    survivor = inspect.getattr_static(WorkerPool, "shared_nbytes")
    assert isinstance(survivor, property)
    assert WorkerPool.__new__(WorkerPool).shared_nbytes == 0
    (getter,) = ast.parse(textwrap.dedent(inspect.getsource(survivor.fget))).body
    assert [ast.unparse(node) for node in getter.body[1:]] == ["return 0"]  # after the docstring


# ----------------------------------------------------------------------
# Fork guard: a graph is one object. ``LabeledGraph`` holds its own rows,
# sets, degrees and label tables and writes them itself; the storage class
# behind it, the ways of wrapping or reaching one, and the normalize-then-
# build passes of the old constructor must not grow back.
# ----------------------------------------------------------------------
def test_storage_seam_stays_deleted():
    from repro.graph import LabeledGraph

    assert_stays_deleted("storage_seam")
    assert not (PACKAGE / "graph" / "csr.py").exists()
    assert not [n for n in ("backend", "_adopt") if hasattr(LabeledGraph, n)]
    # Every slot of a live graph is a plain container or scalar (or the
    # pinned cache): no storage object, no per-instance bound method.
    graph = LabeledGraph(["a", "b"], [(0, 1)], name="g")
    graph.index_cache()
    held = {slot: type(getattr(graph, slot)).__name__ for slot in LabeledGraph.__slots__}
    assert set(held.values()) == {"list", "dict", "int", "str", "GraphIndexCache"}, held
    for name in ("label", "neighbors", "neighbor_set", "degree", "has_edge", "edges",
                 "degree_sequence", "label_id_sequence"):
        assert inspect.isfunction(inspect.getattr_static(LabeledGraph, name)), name
    assert isinstance(inspect.getattr_static(LabeledGraph, "version"), property)


# ----------------------------------------------------------------------
# Fork guard: one version that only counts. There is no checkpoint: the
# epoch is stamped where a cache is constructed, ``delta_seq`` is never
# reset, and no path in ``src/`` flushes the plans.
# ----------------------------------------------------------------------
def test_epoch_is_stamped_once():
    assert not offenders("version")
    assert_stays_deleted("restamp")


# ----------------------------------------------------------------------
# Fork guard: one way to bring a worker current — start it at the version
# its pool serves. The mutation log, its floor and truncation, the per-chunk
# catch-up tail and the graph's replay must not grow back, and a write
# leaves no record of itself in the cache.
# ----------------------------------------------------------------------
def test_catch_up_stays_deleted():
    from repro.graph import LabeledGraph
    from repro.indexes.graph_cache import GraphIndexCache

    assert_stays_deleted("catch_up")
    graph = LabeledGraph(["a", "b", "a"], [(0, 1)])
    cache = graph.index_cache()
    slots = set(cache.__getstate__())
    graph.mutate([("add_edge", 1, 2), ("add_vertex", "b"), ("remove_edge", 0, 1)])
    state = cache.__getstate__()
    assert set(state) == slots <= set(GraphIndexCache.__slots__)
    assert not [kind for kind in ("add_edge", "add_vertex", "remove_edge") if kind in repr(state)]


# ----------------------------------------------------------------------
# Census guard: one rule for derived state. Every slot of the index cache, a
# compiled plan and the plan cache is pickled (named here) or declared in
# its class's table of derived slots; every derived slot of the index cache
# names the check that holds it to the graph; the cache builds one lock, and
# only it reads ``.delta_seq`` (other memos go through ``memoize``).
# ----------------------------------------------------------------------
PICKLED_SLOTS = {
    "GraphIndexCache": (
        "graph", "label_table", "label_to_id", "label_ids", "degrees", "label_index",
        "signature_masks", "candidate_memo_hits", "candidate_memo_misses", "epoch", "delta_seq",
        "_pool_memo_size", "pool_entries_repaired", "pool_entries_rebuilt",
        "pool_entries_dropped",
    ),
    "QueryPlan": (
        "key", "qlist", "order", "backward", "profiles", "entries", "pools",
        "referenced_lids", "absent_labels",
    ),
    "PlanCache": ("_memo", "_size", "hits", "misses"),
}
DERIVED_TABLES = {
    "GraphIndexCache": ("indexes/graph_cache.py", "_DERIVED"),
    "QueryPlan": ("indexes/plans.py", "_LAZIES"),
    "PlanCache": ("indexes/plans.py", "_DERIVED"),
}
# Derived slot of the index cache -> (test file, the check in it that covers the slot).
REPAIR = "tests/indexes/test_delta_repair.py"
DERIVED_CHECKS = {
    "_lock": ("tests/graph/test_shared.py", "assert got._lock is not cache._lock"),
    "_metrics": ("tests/graph/test_shared.py", "got._metrics is None"),
    "_mask_signatures": (REPAIR, "repaired._mask_signatures.items()"),
    "_pool_memo": (REPAIR, "assert members == fresh._scan(*key), key"),
    "_pool_keys": (REPAIR, "assert sorted(indexed) == sorted(repaired._pool_memo)"),
    "plan_cache": (REPAIR, "repaired.plan_cache._memo.items()"),
    "_cost_estimator": (
        "tests/cost/test_estimator.py", "assert session.estimate(query) == rebuilt.estimate(query)",
    ),
}


def class_named(text, name):
    (cls,) = [n for n in nodes(text, ast.ClassDef) if n.name == name]
    return cls


def derived_offenders(sources):
    """Over ``{path: source}``: the names a class writes in its ``__slots__``
    that are neither pickled nor the first field of a row of its table, and
    declared index-cache slots with no check."""
    found = []
    for cls_name, (path, table) in DERIVED_TABLES.items():
        body = class_named(sources["src/repro/" + path], cls_name).body
        values = {named(n.targets[0]): n.value for n in body if isinstance(n, ast.Assign)}
        rows = tuple(row.elts[0].value for row in values[table].elts)
        found += [
            f"{cls_name}.{n.value}: undeclared" for n in ast.walk(values["__slots__"])
            if isinstance(n, ast.Constant) and n.value not in PICKLED_SLOTS[cls_name] + rows
        ]
        checked = DERIVED_CHECKS if cls_name == "GraphIndexCache" else rows
        found += [f"{cls_name}.{slot}: no check" for slot in rows if slot not in checked]
    return found


def test_every_derived_slot_is_declared():
    import threading

    from repro.indexes.graph_cache import GraphIndexCache
    from repro.indexes.plans import PlanCache, QueryPlan

    assert not offenders("derived", "adj_lock")
    for cls in (GraphIndexCache, QueryPlan, PlanCache):
        declared = [row[0] for row in getattr(cls, DERIVED_TABLES[cls.__name__][1])]
        assert sorted(cls.__slots__) == sorted(PICKLED_SLOTS[cls.__name__] + tuple(declared))
    assert set(DERIVED_CHECKS) == {slot for slot, _, _ in GraphIndexCache._DERIVED}
    for path, check in DERIVED_CHECKS.values():
        assert check in read(REPO / path), (path, check)
    locks = [slot for slot, empty, _ in GraphIndexCache._DERIVED if empty is threading.Lock]
    assert locks == ["_lock"] and "Lock()" not in read(PACKAGE / "indexes" / "graph_cache.py")


# ----------------------------------------------------------------------
# Fork guard: one search engine per job. The class-level search (its own
# order, pools, budget meter and recursion), its three entry points, its
# two expanders and their counter must not grow back; neither may the
# module that held them (``STAYS_DELETED["twin_compression"]``).
# ----------------------------------------------------------------------
def test_class_search_stays_deleted():
    assert not offenders("class_search")


# ----------------------------------------------------------------------
# Fork guard: the weighted ceiling is the query's. ``weighted-vertex`` reads
# its bounds off ``candS(u)`` and its weights off the graph; the graph-global
# sorted weight table, its rebuild and numpy degree twin must not grow back.
# ----------------------------------------------------------------------
def test_global_weight_table_stays_deleted():
    assert not offenders("global_weight_table", "numpy import")


# ----------------------------------------------------------------------
# Fork guard: the memo lock lives on the memo. ``DSQL`` guards its result
# memo itself: nothing outside ``core/dsql.py`` names the dict or its lock,
# the catalog builds one lock beside its read-write lock, and the state that
# worked around an entry-held memo lock must not grow back.
# ----------------------------------------------------------------------
def test_memo_lock_lives_on_the_memo():
    from repro.service.catalog import CatalogEntry, GraphCatalog

    assert not offenders("memo_lock")
    assert not hasattr(CatalogEntry, "close") and not hasattr(GraphCatalog, "close")


# ----------------------------------------------------------------------
# Fork guard: a pool is summed where it lives. A pool's degree mass and set
# view live on its memo entry: nothing under ``cost/`` reads the degree list
# and ``PoolEntry.set_view`` alone builds the frozenset; the cost probe is a
# reader; a query says its own neighbourhood signature.
# ----------------------------------------------------------------------
def test_a_pool_is_summed_where_it_lives():
    assert not offenders("pool_sum", "pool_view", "pool_degree_mass")


# ----------------------------------------------------------------------
# Fork guard: a connection starts no thread. In ``service/server.py`` a
# reused handler thread accepts a connection and answers it, as the control
# plane (a ``ServiceServer`` too) does; nothing is computed for an access
# log that is not there; a declared body length is judged before it is read.
# ----------------------------------------------------------------------
TRANSPORT_ROOT = "_accept_loop"


def transport_offenders(sources):
    """What in ``service/server.py`` would put a per-request thread, an
    unconditional ``_query_key`` or an unchecked body read back (a threading
    server is ``FORBIDDEN["threading_server"]``)."""
    text, found = sources["src/repro/service/server.py"], []
    functions = {n.name: n for n in nodes(text, ast.FunctionDef, ast.AsyncFunctionDef)}
    if TRANSPORT_ROOT not in functions:
        found.append(f"no {TRANSPORT_ROOT} to walk from")
    # The growth step, the one place the loop may start a thread: the body of
    # its test of "no idle thread and below the ceiling".
    growth = {
        id(inner)
        for node in nodes(text, ast.If)
        if all(name in ast.unparse(node.test) for name in ("_idle", "_MAX_HANDLER_THREADS"))
        for statement in node.body
        for inner in ast.walk(statement)
    }
    # Reachable by *mention* (a bare name or ``self.name``), not by call: a
    # thread's target is passed, not called.
    reached, frontier = set(), [TRANSPORT_ROOT]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in functions:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if id(node) in growth:
                continue
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Thread"):
                found.append(f"{name} constructs a thread")
            if isinstance(node, ast.Name):
                frontier.append(node.id)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
                frontier.append(node.attr)
    guarded = {
        id(inner)
        for node in nodes(text, ast.If, ast.IfExp) if "access_log" in ast.unparse(node.test)
        for inner in ast.walk(node)
    }
    keyed = [n for n in nodes(text, ast.Call) if ast.unparse(n.func) == "_query_key"]
    if len(keyed) != 1 or id(keyed[0]) not in guarded:
        found.append("_query_key is not called once, under a test of access_log")
    reader = functions["_read_payload"]
    checks = [
        n.lineno for n in ast.walk(reader)
        if isinstance(n, ast.Compare) and "MAX_BODY_BYTES" in ast.unparse(n)
    ]
    reads = [
        n.lineno for n in ast.walk(reader)
        if isinstance(n, ast.Call) and ast.unparse(n.func).endswith(("recv", "recv_into"))
    ]
    if not checks or not reads or min(reads) < min(checks):
        found.append("_read_payload reads before comparing with MAX_BODY_BYTES")
    return found


def test_a_connection_starts_no_thread():
    assert not offenders("transport", "control_plane", "thread_pool")
    assert_stays_deleted("serve_loop")


# ----------------------------------------------------------------------
# Fork guard: one in-process batch path. A thread pool answered batches
# slower than serial (the search holds the GIL), and the wire's ``strategy``
# and ``jobs`` fields only picked it; all of them stay deleted. The string
# ``"thread"`` itself is a HARNESS_ONLY alias of serial.
# ----------------------------------------------------------------------
def test_thread_strategy_stays_deleted():
    assert_stays_deleted("thread_strategy")
    assert_stays_deleted("thread_pool")


# ----------------------------------------------------------------------
# Fork guard: the exact solver has one entry point. A true ratio is the
# caller's division by ``optimal_coverage(...)[0]``, and the bitmask
# search's ceiling and union bound leave the quadratic filter that dropped
# subsets of other sets nothing to do.
# ----------------------------------------------------------------------
def test_exact_solver_helpers_stay_deleted():
    assert_stays_deleted("exact_ratio")
    assert_stays_deleted("drop_dominated")


# ----------------------------------------------------------------------
# Fork guard: a warm hit's price and bytes are kept, never patched. Only
# ``_WarmRecord`` writes a reply's pre-encoded bytes (``.encoded``) and only
# ``_send_json`` reads them, so no other step can send bytes that are not
# the body's; and ``EwmaCalibration`` replaces its state instead of writing
# to it, so a price stamped with a state object stays that state's.
# ----------------------------------------------------------------------
def test_a_warm_hits_price_and_bytes_are_kept_not_patched():
    from repro.cost import CalibrationState

    assert not offenders("kept_price")
    with pytest.raises(dataclasses.FrozenInstanceError):
        CalibrationState().observations = 1


# ----------------------------------------------------------------------
# Every error the service raises has a row in docs/service.md's status
# table: the table is the wire contract, and a new code that skips it is
# an answer no client was told about.
# ----------------------------------------------------------------------
def status_row_offenders(sources):
    """``path:line: status code`` under service/ of ``{path: source}`` for
    every ``ServiceError(<int>, "<str>", ...)`` whose pair docs/service.md's
    status table lacks."""
    rows, found = service_status_rows(sources["docs/service.md"]), []
    for path, text in sorted(under(package(sources), "service/").items()):
        for node in nodes(text, ast.Call):
            if called(node) != "ServiceError":
                continue
            status, code = (getattr(arg, "value", None) for arg in node.args[:2])
            if isinstance(status, int) and isinstance(code, str) and (status, code) not in rows:
                found.append(f"{path}:{node.lineno}: {status} {code}")
    return found


def test_every_service_error_has_a_status_row():
    rows = service_status_rows()
    assert {(431, "head_too_large"), (501, "unsupported_method"), (500, "internal")} <= rows
    assert not offenders("status_rows")


# ----------------------------------------------------------------------
# One declaration per wire field: an endpoint's ``FieldSpec`` rows in
# service/schemas.py are its body fields. Its docs/service.md table (name
# and Type cell, in check order), its ``ServiceClient`` method's keywords,
# its request dataclass and ``CatalogEntry.request_config``'s keywords must
# say the same, or one of them grew a field the others lack.
# ----------------------------------------------------------------------
WIRE_ENDPOINTS = {
    # table: (docs/service.md heading, ServiceClient method, path parameters, request class)
    "QUERY_SPEC": ("POST /v1/query", "query", (), "QueryRequest"),
    "BATCH_SPEC": ("POST /v1/batch", "batch", (), "BatchRequest"),
    "EDGE_SPEC": ("POST /v1/graphs/{graph}/edges", "mutate_edge", ("graph",), None),
    "INGEST_SPEC": ("POST /v1/graphs/{graph}/ingest", "ingest", ("graph",), None),
}
DOC_TYPES = {
    "str": "str", "query": "object", "queries": "list ≤ {bound}", "ops": "list ≤ {bound}",
    "int": "int ≥ {bound}", "vertex": "int ≥ {bound}", "number": "number ≥ {bound}",
    "positive": "number > {bound}",
}


def doc_type(field) -> str:
    """The Type cell docs/service.md gives a ``FieldSpec`` row."""
    if field.kind == "choice":
        cell = "one of " + ", ".join(f"`{choice}`" for choice in field.bound)
    else:
        cell = DOC_TYPES.get(field.kind, f"? {field.kind}").format(bound=field.bound)
    if field.required:
        cell += ", required"
    return cell


def doc_field_rows(text, heading):
    """``[(name, Type cell)]`` of the field table under ``### `heading` ``."""
    section = text.split(f"\n### `{heading}`\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M)


def method_keywords(text, cls, method):
    """The parameter names of ``cls.method`` in source ``text``, ``self`` excluded."""
    for item in class_named(text, cls).body:
        if isinstance(item, ast.FunctionDef) and item.name == method:
            return [a.arg for a in item.args.args[1:] + item.args.kwonlyargs]
    return []


def module_from_source(text, name):
    """``text`` run as a fresh module (in ``sys.modules`` only while it runs)."""
    module = type(sys)(name)
    sys.modules[name] = module
    try:
        exec(compile(text, name, "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def wire_field_offenders(sources):
    """Every disagreement with the ``FieldSpec`` tables of ``sources``'
    service/schemas.py (``{path from the root: text}``)."""
    from repro.core.config import DSQLConfig

    service = package(sources)
    schemas = module_from_source(service["service/schemas.py"], "schemas_under_lint")
    docs = sources["docs/service.md"]
    config_fields = {field.name for field in dataclasses.fields(DSQLConfig)}
    found, overridden = [], set()
    for table, (heading, method, path_params, request) in WIRE_ENDPOINTS.items():
        spec = getattr(schemas, table)
        names = [field.name for field in spec]
        documented = dict(doc_field_rows(docs, heading))
        for field in spec:
            if field.name not in documented:
                found.append(f"{heading}: {field.name!r} has no docs/service.md row")
            elif documented[field.name] != doc_type(field):
                found.append(
                    f"{heading}: docs/service.md types {field.name!r} as "
                    f"{documented[field.name]!r}, its row as {doc_type(field)!r}"
                )
            if field.config is not None:
                overridden.add(field.config)
                if field.config not in config_fields:
                    found.append(f"{table}: {field.name!r} overrides DSQLConfig.{field.config}")
        found += [
            f"{heading}: docs/service.md documents {n!r}" for n in documented if n not in names
        ]
        if [n for n in documented if n in names] != [n for n in names if n in documented]:
            found.append(f"{heading}: docs/service.md lists the fields out of check order")
        sent = {field.name for field in spec if field.client}
        taken = set(method_keywords(service["service/client.py"], "ServiceClient", method))
        taken -= set(path_params)
        found += [f"ServiceClient.{method} does not take {n!r}" for n in sorted(sent - taken)]
        found += [
            f"ServiceClient.{method} takes {n!r}, sent by no row" for n in sorted(taken - sent)
        ]
        if request is not None:
            fields = {field.name for field in dataclasses.fields(getattr(schemas, request))}
            found += [f"{request} has no field {n!r}" for n in names if n not in fields]
            found += [f"{request}.{n} is no row" for n in sorted(fields - set(names))]
    keywords = method_keywords(service["service/catalog.py"], "CatalogEntry", "request_config")
    keywords = set(keywords) - {"use_compression"}  # a HARNESS_ONLY row
    found += [f"CatalogEntry.request_config lacks {n!r}" for n in sorted(overridden - keywords)]
    found += [
        f"CatalogEntry.request_config takes {n!r}, overridden by no row"
        for n in sorted(keywords - overridden)
    ]
    return found


def test_wire_fields_are_declared_once():
    from repro.service import schemas

    assert wire_field_offenders(guard_sources()) == []
    docs = read(REPO / "docs" / "service.md")
    for table, (heading, *_rest) in WIRE_ENDPOINTS.items():
        assert len(doc_field_rows(docs, heading)) == len(getattr(schemas, table)) > 0
    # The ingest threshold is checked, then dropped; no bundled client sends it.
    (threshold,) = [f for f in schemas.INGEST_SPEC if f.name == "compaction_threshold"]
    assert (threshold.kind, threshold.bound, threshold.client) == ("int", 1, False)
    assert {f.kind for spec in WIRE_ENDPOINTS for f in getattr(schemas, spec)} == set(
        schemas._CHECKERS
    )


# ----------------------------------------------------------------------
# Fork guard: the data graph stays out of the cyclic collector, and every
# join over it walks the smaller side. The storage writers build no set (a
# set per vertex is a tracked object; a dict of ints to ``None`` is not),
# and no ``.intersection(`` takes a neighbor key view, which CPython then
# walks whole.
# ----------------------------------------------------------------------
def test_the_graph_stays_out_of_the_collector():
    # tests/graph/test_collector.py checks the same at run time.
    assert not offenders("collector")


# ----------------------------------------------------------------------
# Fork guard: two observation channels in the engines. Every engine event is
# a metric or a span of the ``Instrumentation`` bundle (a registry and an
# optional tracer); the callback channel beside them — its base class, its
# four callbacks, the per-embedding dispatch and the bundle's third slot —
# must not grow back.
# ----------------------------------------------------------------------
def test_profiling_hooks_stay_deleted():
    from repro.observability import Instrumentation

    assert not offenders("profiling_hooks")
    assert not (PACKAGE / "observability" / "hooks.py").exists()
    assert Instrumentation.__slots__ == ("metrics", "tracer")


def test_test_only_surface_stays_deleted():
    assert_stays_deleted("test_only_surface")
    for module in ("graph/interop.py", "indexes/signature.py"):
        assert not (PACKAGE / module).exists(), module
# ----------------------------------------------------------------------
# Dependency guard: ``import repro`` needs only what pyproject.toml's
# ``[project] dependencies`` declares. The AST lint reads every import in
# ``src/``; the import test blocks every other installed package and
# imports every module.
# ----------------------------------------------------------------------
def normalized(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def declared_distributions():
    """Normalized distribution names under ``[project] dependencies``, read
    with a regex: ``tomllib`` is 3.11+ and ``requires-python`` is 3.10."""
    text = read(REPO / "pyproject.toml")
    array = re.search(r'^dependencies\s*=\s*\[((?:\s*"[^"]*"\s*,?)*)\s*\]', text, re.M)
    assert array, "pyproject.toml has no [project] dependencies array of strings"
    return {
        normalized(re.split(r"[\s<>=!~;\[(]", dep, maxsplit=1)[0])
        for dep in re.findall(r'"([^"]*)"', array.group(1))
    }


@cached
def installed_modules():
    """``(declared, undeclared)``: the top-level modules of installed
    distributions, split by whether ``dependencies`` lists a distribution
    providing them (stdlib names and ``repro`` itself left out)."""
    declared, skipped = declared_distributions(), sys.stdlib_module_names | {"repro"}
    split = (set(), set())
    for module, dists in importlib.metadata.packages_distributions().items():
        if module.isidentifier() and module not in skipped:
            split[not any(normalized(d) in declared for d in dists)].add(module)
    return split


def test_src_imports_only_declared_packages():
    assert "numpy" in installed_modules()[0]
    # Every import in src/, at module level or inside a function, is of the
    # stdlib, ``repro`` or a declared distribution's module.
    assert not offenders("undeclared import")


def test_every_module_imports_with_undeclared_packages_blocked():
    """In a fresh interpreter where every installed package that
    ``dependencies`` does not list is blocked, every ``repro.*`` module
    imports."""
    blocked = sorted(installed_modules()[1])
    assert "pytest" in blocked
    script = (
        "import importlib, pkgutil, sys\n"
        f"for name in {blocked!r}:\n"
        "    sys.modules[name] = None\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(names))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    src = REPO / "src"
    files = {
        ".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
        for p in (src / "repro").rglob("*.py")
    }
    assert sorted(proc.stdout.split()) == sorted(files - {"repro"})


# ----------------------------------------------------------------------
# Catalog guards: docs/observability.md's metric tables and event-name
# table agree with the code. Every name a row gives is emitted by
# ``src/repro``, and every name ``src/repro`` emits has a row. A metric is
# emitted where a registry's ``counter`` / ``gauge`` / ``histogram`` is
# called with it, a span or point where ``span`` / ``point`` / ``emit_span``
# is: with a literal, from a table (``SearchStats``' flush table) or as an
# f-string family spelled out from the values its placeholder takes.
# ``Instrumentation`` forwards its ``name`` argument to the tracer.
# ----------------------------------------------------------------------
METRIC_CALLS = ("counter", "gauge", "histogram")
EVENT_CALLS = ("span", "point", "emit_span")
EVENT_FAMILIES = {
    "f'{phase}.level'": {"phase1.level", "phase2.level"},
    "name": set(),  # Instrumentation.span / point forward their argument
}


def metric_families():
    """``{source of a non-literal name argument: the names it takes}``."""
    from repro.coverage.objectives import OBJECTIVE_NAMES
    from repro.kernels import KERNEL_KINDS
    from repro.observability.metrics import _STATS_COUNTERS
    from repro.service.server import _OUTCOMES

    return {
        "f'{phase}.level_expansions'": {"phase1.level_expansions", "phase2.level_expansions"},
        "f'kernel.dispatch.{kind}'": {f"kernel.dispatch.{kind}" for kind in KERNEL_KINDS},
        "f'objective.{self.config.objective}.queries'": {
            f"objective.{name}.queries" for name in OBJECTIVE_NAMES
        },
        "f'objective.{self.config.objective}.swap_accept'": {
            f"objective.{name}.swap_accept" for name in OBJECTIVE_NAMES
        },
        "f'service.requests.{outcome}'": {f"service.requests.{outcome}" for outcome in _OUTCOMES},
        "metric": {metric for _, metric in _STATS_COUNTERS},
        "name": set(),  # merge_counters replays names emitted elsewhere
    }


def emitted_names(sources, families, calls=METRIC_CALLS):
    """``(names, unknown)`` over ``{path: source}``: every name the sources
    pass first to a method in ``calls`` (metric instruments by default), and
    ``path: argument`` for a name argument that is neither a literal nor a
    known family. ``self._metric("x")`` (the cost estimator's per-graph
    suffix) emits ``x``."""
    names, unknown = set(), []
    for path, text in sources.items():
        for node in nodes(text, ast.Call):
            if not (isinstance(node.func, ast.Attribute) and node.func.attr in calls and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Call) and ast.unparse(arg.func) == "self._metric":
                arg = arg.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
            elif ast.unparse(arg) in families:
                names |= families[ast.unparse(arg)]
            else:
                unknown.append(f"{path}: {ast.unparse(arg)}")
    return names, unknown


def documented_names(text, heading="## Metric catalog"):
    """Every backticked name in the first cell of a table row under
    ``heading`` (to the next ``## ``), ``<name>`` spelled out over the
    objectives."""
    from repro.coverage.objectives import OBJECTIVE_NAMES

    section = text.split(heading, 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if "<name>" in name:
                names |= {name.replace("<name>", objective) for objective in OBJECTIVE_NAMES}
            else:
                names.add(name)
    return names


def catalog_offenders(sources, heading, families, calls):
    """Over ``{path from the root: text}``: every name argument the package
    builds some new way, every row under ``heading`` of docs/observability.md
    that no code emits, and every emitted name with no row."""
    emitted, unknown = emitted_names(package(sources), families, calls)
    documented = documented_names(sources["docs/observability.md"], heading)
    return (
        unknown + [f"a row no code emits: {name}" for name in sorted(documented - emitted)]
        + [f"an emitted name with no row: {name}" for name in sorted(emitted - documented)]
    )


def test_metric_catalog_matches_the_code():
    assert len(emitted_names(package(texts("src/repro")), metric_families())[0]) > 60
    assert not offenders("metrics")


def test_span_catalog_matches_the_code():
    assert len(emitted_names(package(texts("src/repro")), EVENT_FAMILIES, EVENT_CALLS)[0]) >= 11
    assert not offenders("spans")


# ----------------------------------------------------------------------
# Fork guard: one join rule. Both engines join a matched neighbor on its
# neighbor set; the per-depth kernel table, the class pools, the bitset and
# class-bitset gates, the adjacency-mask memo and ``localized_search`` stay
# deleted.
# ----------------------------------------------------------------------
def test_kernel_gates_stay_deleted():
    from repro.indexes.plans import QueryPlan

    assert_stays_deleted("kernel_gates")
    assert not {"kernels", "class_pools", "_cand_masks", "_class_masks"} & set(QueryPlan.__slots__)


# ----------------------------------------------------------------------
# Fork guard: one join mechanism. Both engines join on neighbor sets; the
# twin-class partition and everything that built, repaired, read or
# counted it stay deleted. What harness 1.0 reads is a HARNESS_ONLY shim.
# ----------------------------------------------------------------------
def test_twin_compression_stays_deleted():
    from repro.core.config import DSQLConfig
    from repro.indexes.graph_cache import GraphIndexCache

    assert_stays_deleted("twin_compression")
    # The eager expander's name is a substring of ``nodes_expanded``, so the
    # module is looked up rather than scanned for.
    assert importlib.util.find_spec("repro.isomorphism.compression") is None
    assert not hasattr(GraphIndexCache, "compressed")
    assert "use_compression" not in {f.name for f in dataclasses.fields(DSQLConfig)}


# ----------------------------------------------------------------------
# Fork guard: a write is its delta. The graph's only record of one is the
# ``(epoch, delta_seq)`` version; the compaction counter, the checkpoint,
# the threshold's default and every spelling of it outside the shims
# harness 1.0 reads stay deleted.
# ----------------------------------------------------------------------
def test_compaction_stays_deleted():
    from repro.graph import MutationSummary
    from repro.service.client import ServiceClient

    assert_stays_deleted("compaction")
    assert MutationSummary._fields == ("applied", "version")
    assert "compaction_threshold" not in inspect.signature(ServiceClient.ingest).parameters


# ----------------------------------------------------------------------
# Harness-only names: the rows of ``HARNESS_ONLY`` (tests/guard_tables.py)
# are what perfbench's harness still reads; nothing in ``src/`` may use one
# outside its row's home, and each row's mutant must be seen.
# ----------------------------------------------------------------------
# How the harness reads a row whose names it never spells out: every kind,
# by ``KERNEL_KINDS`` and ``SearchStats.kernel_<kind>``.
HARNESS_READS = {"cbitset/kernel_cbitset": ("for kind in KERNEL_KINDS", 'f"kernel_{kind}"')}
# The nodes a use of each kind can be.
HARNESS_USE_NODES = {
    "attribute": (ast.Attribute,), "name": (ast.Name, ast.alias, ast.Attribute),
    "string": (ast.Constant,), "keyword": (ast.Call,),
}


def harness_only_use(node, kind, names):
    """The line at which AST ``node`` uses one of a row's ``names``, else
    ``None``: an attribute read (``owner.attr`` names the owner's spelling,
    as the harness writes it), a name read, imported or an attribute of that
    name, a keyword passed to a call (``callee(keyword=)``), or a string
    constant (a wire key)."""
    if kind == "attribute":
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value).rsplit(".", 1)[-1]
            for spelled, _, attr in (name.rpartition(".") for name in names):
                if node.attr == attr and owner.endswith(spelled):
                    return node.lineno
    elif kind == "name":
        if named(node) in names or getattr(node, "name", None) in names:
            return node.lineno
    elif kind == "string":
        if isinstance(node, ast.Constant) and node.value in names:
            return node.lineno
    elif isinstance(node, ast.Call):
        for callee, keyword in (name[:-2].split("(") for name in names):
            if getattr(node.func, "attr", None) == callee:
                for kw in node.keywords:
                    if kw.arg == keyword:
                        return kw.lineno
    return None


@cached
def harness_only_uses_in(path: str, text: str) -> Tuple[str, ...]:
    """``path:line: row`` for every use, in the package module ``path``
    holding ``text``, of a :data:`HARNESS_ONLY` name outside its row's home."""
    found = []
    for row, (kind, names, home, *_mutant) in HARNESS_ONLY.items():
        if not path.startswith(home):
            uses = nodes(text, *HARNESS_USE_NODES[kind])
            lines = [harness_only_use(node, kind, names) for node in uses]
            found += [f"{path}:{line}: {row}" for line in lines if line is not None]
    return tuple(found)


def harness_only_uses(sources):
    modules = sorted(package(sources).items())
    return [use for path, text in modules for use in harness_only_uses_in(path, text)]


def test_harness_only_names_have_no_caller_in_src():
    assert not offenders("harness")
    harness = "".join(
        read(REPO / "perfbench" / "harness" / f"{module}.py")
        for module in ("layers", "workloads", "inputs")
    )
    for row, (kind, names, _home, *mutant) in HARNESS_ONLY.items():
        # Still read there: the name, the callee and the keyword, or how the
        # harness spells the read.
        spellings = [name[:-2].split("(") if kind == "keyword" else [name] for name in names]
        spellings += [HARNESS_READS[row]] if row in HARNESS_READS else []
        assert any(all(part in harness for part in parts) for parts in spellings), row
        assert_reported(*mutant)
# ----------------------------------------------------------------------
# Doc symbols: every dotted ``repro.…`` symbol in a backtick span of the
# README, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` resolves by import
# (a module, then attributes; a dataclass field counts). ``a.b/c`` names
# ``a.b`` and ``a.c``.
# ----------------------------------------------------------------------
DOC_SYMBOL = re.compile(r"(?<![\w./-])(repro(?:\.[A-Za-z_]\w*)+)((?:/[A-Za-z_]\w*)*)")


@cached
def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif dataclasses.is_dataclass(obj) and name in {
                f.name for f in dataclasses.fields(obj)
            }:
                obj = None
            else:
                return False
        return True
    return False


def doc_symbol_offenders(sources):
    """``path:line: symbol`` over the markdown of ``{path: text}`` for every
    backticked ``repro.…`` symbol that does not resolve."""
    found = []
    for path, text in sources.items():
        lines = text.splitlines() if path.endswith(".md") else []
        for number, line in enumerate(lines, 1):
            for span in re.findall(r"`([^`\n]+)`", line):
                for dotted, siblings in DOC_SYMBOL.findall(span):
                    parent = dotted.rsplit(".", 1)[0]
                    for symbol in [dotted] + [f"{parent}.{s}" for s in siblings.split("/")[1:]]:
                        if not resolves(symbol):
                            found.append(f"{path}:{number}: {symbol}")
    return found


def test_doc_symbols_resolve():
    sources = guard_sources()  # the markdown: root docs, docs/ and .claude/
    assert doc_symbol_offenders(sources) == []
    # The check reads dataclass fields and slash-joined siblings.
    assert "`repro.queries.qflist.QFList.label_rm/neighbor_rm`" in sources["docs/paper_mapping.md"]
    misspelled = "`repro.queries.qflist.QFList.label_rm/neighbour_rm`"
    assert doc_symbol_offenders({"x.md": misspelled}) == [
        "x.md:1: repro.queries.qflist.QFList.neighbour_rm"
    ]


# ----------------------------------------------------------------------
# No test imports the lint module: a table or reader another test shares
# with the guards lives in tests/guard_tables.py, so collecting that test
# does not import the guard layer and a guard's edit cannot break it.
# ----------------------------------------------------------------------
def test_no_test_imports_the_lint_module():
    assert not offenders("lint import")


# ----------------------------------------------------------------------
# The guards, and their mutants: a guard is the test that runs it on the
# real tree and its parts (what ``offenders`` takes). Each mutant row is a
# paste its guard must see, and only that: ``{line}`` in a report is the
# line the paste starts on.
# ----------------------------------------------------------------------
GUARDS = {
    # guard: (the test that runs it on the real tree, its parts)
    "width": ("test_lines_fit_the_ruff_width", wide_lines),
    "imports": ("test_no_unused_imports", lambda s: per_file(s, unused_imports)),
    "names": ("test_no_undefined_names", lambda s: per_file(s, undefined_names)),
    "examples": ("test_example_imports_resolve", lambda s: import_offenders(under(s, "examples/"))),
    "bench_scripts": ("test_bench_scripts_time_nothing", "bench_timing"),
    "engines": ("test_engine_fork_stays_deleted", "budget raise", "probe loop", "search engine"),
    "frame": (
        "test_frame_prologue_stays_folded",
        "engines", "function in search", "search_probes_edges", "conflict rule",
    ),
    "resort": ("test_resort_walks_in_one_place", "father walk", "resort_in_plans"),
    "localization": ("test_localization_stays_in_one_place", "row walk"),
    "graph_numpy": ("test_shared_memory_transport_stays_deleted", "numpy import"),
    "weights_numpy": ("test_global_weight_table_stays_deleted", "numpy import"),
    "version": ("test_epoch_is_stamped_once", "epoch stamp", "version reset"),
    "derived": ("test_every_derived_slot_is_declared", derived_offenders, "delta_seq read"),
    "memo_lock": (
        "test_memo_lock_lives_on_the_memo", "memo names", "catalog lock", "memo_workarounds",
    ),
    "pool_sum": (
        "test_a_pool_is_summed_where_it_lives",
        "pool view", "degree read", "catalog reader", "own signature",
    ),
    "transport": ("test_a_connection_starts_no_thread", transport_offenders, "threading_server"),
    "kept_price": (
        "test_a_warm_hits_price_and_bytes_are_kept_not_patched",
        "encoded write", "encoded read", "state written in place",
    ),
    "status_rows": ("test_every_service_error_has_a_status_row", status_row_offenders),
    "wire_fields": ("test_wire_fields_are_declared_once", wire_field_offenders),
    "collector": (
        "test_the_graph_stays_out_of_the_collector", "set in storage", "intersection over views",
    ),
    "declared": ("test_src_imports_only_declared_packages", "undeclared import"),
    "metrics": (
        "test_metric_catalog_matches_the_code",
        lambda s: catalog_offenders(s, "## Metric catalog", metric_families(), METRIC_CALLS),
    ),
    "spans": (
        "test_span_catalog_matches_the_code",
        lambda s: catalog_offenders(s, "### Event names", EVENT_FAMILIES, EVENT_CALLS),
    ),
    "doc_symbols": ("test_doc_symbols_resolve", doc_symbol_offenders),
    "lint_imports": ("test_no_test_imports_the_lint_module", "lint import"),
    "harness": ("test_harness_only_names_have_no_caller_in_src", harness_only_uses),
}


SEARCH, PLANS = "src/repro/core/search.py", "src/repro/indexes/plans.py"
DSQL_PY, ESTIMATOR = "src/repro/core/dsql.py", "src/repro/cost/estimator.py"
CATALOG, SERVER = "src/repro/service/catalog.py", "src/repro/service/server.py"
DSQL_END = "    return DSQL(graph, config=config).query(query)\n"
GUARD_MUTANTS = {
    # id: (guard, file, anchor, pasted after it, what the guard reports)
    # A line one column wider than ruff's limit.
    "line_over_the_width": (
        "width", "src/repro/core/phase2.py", FUTURE_IMPORT, "#" + "-" * 100 + "\n",
        ["src/repro/core/phase2.py:{line}: 101 columns"],
    ),
    # An import pasted into a real module and read nowhere ...
    "unused_import": (
        "imports", "src/repro/core/phase2.py", FUTURE_IMPORT, "from itertools import chain\n",
        ["src/repro/core/phase2.py:{line}: chain"],
    ),
    # ... and a name read by an annotation alone, imported nowhere.
    "import_read_by_an_annotation": (
        "names", "tests/service/test_cost_admission.py", "from typing import Optional\n",
        "def _annotated(config: Mapping) -> None:\n    pass\n",
        ["tests/service/test_cost_admission.py:{line}: Mapping"],
    ),
    # A deleted name imported again by an example.
    "stale_example_import": (
        "examples", "examples/engine_comparison.py", "from repro.isomorphism import QSearchEngine",
        ", count_embeddings_compressed",
        ["examples/engine_comparison.py: repro.isomorphism.count_embeddings_compressed"],
    ),
    # A paper bench timing itself again.
    "bench_timing": (
        "bench_scripts", "benchmarks/bench_table2_embedding_counts.py",
        "def test_table2_embedding_counts(benchmark):\n", "    start = time.perf_counter()\n",
        ["benchmarks/bench_table2_embedding_counts.py: 'perf_counter'"],
    ),
    # A private budget check pasted back into a baseline.
    "budget_check_in_a_baseline": (
        "engines", "src/repro/baselines/com.py",
        "    result.coverage = coverage_of(result.embeddings)\n    return result\n",
        "\n\ndef charge(spent, limit):\n    if spent > limit:\n        raise BudgetExceeded('x')\n",
        ["budget raise: +baselines/com.py:charge"],
    ),
    # A closure pasted back into a frame ...
    "closure_in_a_frame": (
        "frame", SEARCH, "            rcand = sorted(self._tcand[u])\n",
        "        joinable = lambda v: v not in used\n",
        ["function in search: +core/search.py:LevelSearchEngine._multi_overlap"],
    ),
    # ... a nested join test that probes edges ...
    "nested_def_in_a_frame": (
        "frame", SEARCH, "        tried_valid = 0\n",
        "\n        def joinable(v):\n            return self.graph.has_edge(v, 0)\n\n",
        ["function in search: +core/search.py:LevelSearchEngine._single_frame",
         f"{SEARCH}: 'has_edge'"],
    ),
    # ... and a second raise site beside the in-place charge.
    "second_raise_in_a_frame": (
        "frame", SEARCH, "                meter.check()\n            if v in bad:\n",
        "                raise BudgetExceeded('node budget exhausted')\n",
        ["budget raise: +core/search.py:LevelSearchEngine._multi_overlap"],
    ),
    # The walk the frame table used to run through ``resort``, in the plan module.
    "second_father_walk": (
        "resort", PLANS, "            order = resort_order(self.qlist, *basis, qovp)\n",
        "            entries = [QFEntry(order[0][0], NO_FATHER)]\n"
        "            placed, cursor = {order[0][0]}, 0\n"
        "            while len(entries) < query.size:\n"
        "                u = entries[cursor].node\n"
        "                for w in sorted(set(query.neighbors(u)) - placed):\n"
        "                    entries.append(QFEntry(w, u))\n"
        "                    placed.add(w)\n"
        "                cursor += 1\n",
        ["father walk: +indexes/plans.py:QueryPlan.frames"],
    ),
    # Both lines the localization guard replaced, pasted back: the engine's ...
    "engine_walks_a_row": (
        "localization", SEARCH, "        tried_valid = 0\n",
        "        base = [w for w in self.graph.neighbors(self._assignment[father]) if w in pool]\n",
        ["row walk: +core/search.py:LevelSearchEngine._single_frame"],
    ),
    # ... and the baseline's; and the miss regrown as a row walk.
    "baseline_walks_a_row": (
        "localization", "src/repro/baselines/com.py", "        u = entry.node\n",
        "        for v in graph.neighbors(assignment[entry.father]):\n"
        "            if not candidates.is_candidate(u, v):\n                continue\n",
        ["row walk: +baselines/com.py:region_embeddings.recurse"],
    ),
    "miss_walks_the_row": (
        "localization", "src/repro/indexes/candidates.py",
        "hit = tuple(filter(self._pool_set(u).__contains__, self.graph.neighbors(fv)))\n",
        "            hit = tuple(w for w in self.graph.neighbors(fv) if w in self._pool_set(u))\n",
        ["row walk: +indexes/candidates.py:CandidateIndex.localized"],
    ),
    # numpy imported for the array base (``STAYS_DELETED["array_base"]``'s
    # paste) and for a graph-global weight table.
    "array_base_imports_numpy": (
        "graph_numpy", LABELED, "        self._sets = sets\n", STAYS_DELETED["array_base"][3],
        ["numpy import: +graph/labeled_graph.py:LabeledGraph.__init__"],
    ),
    "estimator_imports_numpy": (
        "weights_numpy", ESTIMATOR, "import math\n", "import numpy as np\n",
        ["numpy import: +cost/estimator.py:<module>"],
    ),
    # The re-stamp pasted into a batched write.
    "restamp_in_a_write": (
        "version", LABELED, "            self._cache.apply_delta(applied)\n",
        "            self._cache.epoch = next(_EPOCHS)\n"
        "            self._cache.delta_seq = 0\n            self._cache.plan_cache.clear()\n",
        [f"{rule}: +graph/labeled_graph.py:LabeledGraph.mutate"
         for rule in ("epoch stamp", "epoch stamp", "version reset", "version reset")],
    ),
    # A memo slot pasted into the cache with no row ...
    "undeclared_slot": (
        "derived", CACHE, '        "pool_entries_dropped",\n', '        "_plan_lists",\n',
        ["GraphIndexCache._plan_lists: undeclared"],
    ),
    # ... and a plan store that checks the version itself again.
    "plan_store_reads_delta_seq": (
        "derived", PLANS, "    def _keep(self, key, plan: QueryPlan) -> None:\n",
        "        assert cache.delta_seq == seq\n",
        ["delta_seq read: +indexes/plans.py:PlanCache._keep"],
    ),
    # The batch put back under an entry-held memo lock ...
    "batch_under_memo_lock": (
        "memo_lock", CATALOG,
        "            with BatchExecutor(session, strategy=strategy, jobs=jobs) as executor:\n",
        "                with self._memo_lock:\n                    executor.run(list(queries))\n",
        ["memo names: +service/catalog.py:CatalogEntry.answer_batch"],
    ),
    # ... the lock itself built on the entry ...
    "entry_batch_lock": (
        "memo_lock", CATALOG, "        self._session_lock = threading.Lock()\n",
        "        self._batch_lock = threading.Lock()\n",
        ["catalog lock: +service/catalog.py:CatalogEntry.__init__"],
    ),
    # ... the executor walking the session's dict again ...
    "executor_reads_memo": (
        "memo_lock", "src/repro/parallel/executor.py", "by_key = dict(zip(keys, queries))\n",
        "        need = [k for k in by_key if k not in session._query_cache]\n",
        ["memo names: +parallel/executor.py:BatchExecutor.run"],
    ),
    # ... and the plan cache's spec table back.
    "plan_specs": (
        "memo_lock", PLANS, FUTURE_IMPORT, "self._specs[key] = spec\n", [f"{PLANS}: '._specs'"],
    ),
    # The pool walk pasted back into the estimator, as a bound reader or as
    # an index ...
    "estimator_walks_a_pool": (
        "pool_sum", ESTIMATOR, "    mass_of = cache.degree_mass\n",
        "    degree_of = cache.degrees.__getitem__\n",
        ["degree read: +cost/estimator.py:raw_cost_profile"],
    ),
    "estimator_indexes_a_degree": (
        "pool_sum", ESTIMATOR, "    mass_of = cache.degree_mass\n",
        "    first = cache.degrees[pools[0][0]]\n",
        ["degree read: +cost/estimator.py:raw_cost_profile"],
    ),
    # ... a reader building a pool's set of its own ...
    "reader_builds_a_pool_set": (
        "pool_sum", "src/repro/core/phase1.py", "    return {u: plan.pool_set(u)",
        " & frozenset(plan.pools[u])", ["pool view: +core/phase1.py:tcand_snapshot"],
    ),
    # ... the plan building its own view again instead of taking the entry's ...
    "plan_builds_its_own_view": (
        "pool_sum", PLANS, "        return entry.set_view() if view is None else view",
        " or frozenset(self.pools[u])", ["pool view: +indexes/plans.py:QueryPlan.pool_set"],
    ),
    # ... the entry building a second set of its members ...
    "entry_builds_a_second_set": (
        "pool_sum", CACHE, "        view = self.view = frozenset(self.members)\n",
        "        self.lists = {v: frozenset(self.members) for v in ()}\n",
        ["pool view: +indexes/graph_cache.py:PoolEntry.set_view"],
    ),
    # ... a second, unlocked cost probe ...
    "probe_outside_the_read_lock": (
        "pool_sum", CATALOG,
        "    # -- cost estimation -----------------------------------------------\n",
        "    def estimate_cost(self, query, config=None):\n"
        "        return self.session(config).estimate(query)\n\n",
        ["catalog reader: +service/catalog.py:CatalogEntry.estimate_cost"],
    ),
    # ... and the query's own signature gone (the inherited one builds a cache).
    "query_signature_inherited": (
        "pool_sum", "src/repro/graph/query_graph.py", "    def neighborhood_signature", "_own",
        ["own signature: -graph/query_graph.py:QueryGraph.neighborhood_signature"],
    ),
    # The thread-per-connection server pasted back ...
    "threading_server": (
        "transport", SERVER, "import urllib.parse\n",
        "from http.server import ThreadingHTTPServer\n", [f"{SERVER}: 'ThreadingHTTPServer'"],
    ),
    # ... an accepted connection answered on a thread of its own ...
    "thread_per_connection": (
        "transport", SERVER, "                self._handler(request, client_address)\n",
        "                threading.Thread(target=self._handler, args=(request,)).start()\n",
        [f"{TRANSPORT_ROOT} constructs a thread"],
    ),
    # ... a thread started on every accept, idle ones or not ...
    "growth_beside_idle_threads": (
        "transport", SERVER, "                self._handler(request, client_address)\n",
        "                self._add_thread()\n", ["_add_thread constructs a thread"],
    ),
    # ... the accept loop renamed, which would leave the walk nothing to check ...
    "transport_root_renamed": (
        "transport", SERVER, "    def _accept_loop", "_renamed",
        [f"no {TRANSPORT_ROOT} to walk from"],
    ),
    # ... the digest computed for nobody ...
    "query_key_for_nobody": (
        "transport", SERVER, "        price = record.price\n",
        "        key = _query_key(request.query)\n",
        ["_query_key is not called once, under a test of access_log"],
    ),
    # ... and the socket read moved above the declared-length check.
    "read_before_check": (
        "transport", SERVER, "            length = MAX_BODY_BYTES + 1\n",
        "        early = self._recv(length)\n",
        ["_read_payload reads before comparing with MAX_BODY_BYTES"],
    ),
    # A miss given bytes of its own ...
    "bytes_written_outside_the_record": (
        "kept_price", SERVER, '        answer["estimated_cost"] = dict(wire)\n',
        "        answer.encoded = _SORTED_JSON.encode(answer).encode()\n",
        ["encoded write: +service/server.py:QueryService.handle_query"],
    ),
    # ... a hit's bytes read before they are sent ...
    "bytes_read_outside_the_send": (
        "kept_price", SERVER, "if isinstance(answer, tuple):  # a hit: the record's reply\n",
        '            logger.debug("%d bytes", len(record.hit(answer, elapsed_ms).encoded))\n',
        ["encoded read: +service/server.py:QueryService.handle_query"],
    ),
    # ... and a calibration state written in place under a kept price.
    "calibration_written_in_place": (
        "kept_price", "src/repro/cost/calibration.py", "            if state.observations == 0:\n",
        "                state.observations += 1\n",
        ["state written in place: +cost/calibration.py:EwmaCalibration.observe"],
    ),
    # A raise of a code docs/service.md's status table does not list.
    "unlisted_error": (
        "status_rows", SERVER, "            probe_request, handler = route\n",
        '            raise ServiceError(418, "teapot", "short and stout")\n',
        ["service/server.py:{line}: 418 teapot"],
    ),
    # A field added in one place only: a row no doc, client or request has ...
    "field_in_the_table_only": (
        "wire_fields", "src/repro/service/schemas.py",
        '    FieldSpec("queries", "queries", bound=MAX_BATCH_QUERIES, required=True),\n',
        '    FieldSpec("seed", "int", bound=0),\n',
        ["POST /v1/batch: 'seed' has no docs/service.md row",
         "ServiceClient.batch does not take 'seed'", "BatchRequest has no field 'seed'"],
    ),
    # ... a client keyword no row sends ...
    "field_in_the_client_only": (
        "wire_fields", "src/repro/service/client.py", "        queries: Iterable[QueryLike],\n",
        "        seed: Optional[int] = None,\n",
        ["ServiceClient.batch takes 'seed', sent by no row"],
    ),
    # ... and an override no row carries.
    "override_in_the_catalog_only": (
        "wire_fields", CATALOG, "        time_budget_ms: Optional[float] = None,\n",
        "        node_budget: Optional[int] = None,\n",
        ["CatalogEntry.request_config takes 'node_budget', overridden by no row"],
    ),
    # A set per vertex put back where a vertex is appended ...
    "membership_set": (
        "collector", LABELED, "        self._sets.append({})\n", "        self._sets[-1] = set()\n",
        ["set in storage: +graph/labeled_graph.py:LabeledGraph._append_vertex"],
    ),
    # ... and the fold that walks every neighbor view whole.
    "intersection_over_views": (
        "collector", SEARCH, "        joined = set(rcand)\n",
        "        joined = joined.intersection(*map(neighbor_set, backward))\n",
        ["intersection over views: +core/search.py:LevelSearchEngine._fold_join"],
    ),
    # An undeclared import pasted into a function body.
    "undeclared_import": (
        "declared", DSQL_PY, DSQL_END, "    import networkx as nx\n",
        ["undeclared import: +core/dsql.py:diversified_search"],
    ),
    # A metric row commented out of the doc, a literal name pasted into the
    # code, and a name built some new way ...
    "metric_row_deleted": (
        "metrics", "docs/observability.md", "distinct from `overloaded`) |\n", "<!-- ",
        ["an emitted name with no row: service.mutations"],
    ),
    "metric_pasted": (
        "metrics", DSQL_PY, DSQL_END, "metrics.counter('x.y').inc()\n",
        ["an emitted name with no row: x.y"],
    ),
    "metric_built_some_new_way": (
        "metrics", DSQL_PY, DSQL_END, "metrics.counter(f'cache.{kind}').inc()\n",
        ["core/dsql.py: f'cache.{kind}'"],
    ),
    # ... and the same three for the event names.
    "span_row_deleted": (
        "spans", "docs/observability.md", "`request_id`, `path`, `status` |\n", "<!-- ",
        ["an emitted name with no row: memo.lookup"],
    ),
    "span_pasted": (
        "spans", DSQL_PY, DSQL_END, "instr.span('x.y')\n", ["an emitted name with no row: x.y"],
    ),
    "span_built_some_new_way": (
        "spans", DSQL_PY, DSQL_END, "instr.point(f'stage.{kind}')\n",
        ["core/dsql.py: f'stage.{kind}'"],
    ),
    # A test taking a shared table from the lint module again.
    "test_imports_the_lint_module": (
        "lint_imports", "tests/kernels/test_join_kernels.py",
        "    from tests.guard_tables import HARNESS_ONLY\n", "    from tests.test_lint import X\n",
        ["lint import: +tests/kernels/test_join_kernels.py:test_every_kernel_kind_dispatches"],
    ),
    # A symbol renamed in the docs and not in the code.
    "renamed_doc_symbol": (
        "doc_symbols", "docs/paper_mapping.md", "`repro.queries.qflist.resort_order", "s",
        ["docs/paper_mapping.md:{line}: repro.queries.qflist.resort_orders"],
    ),
}


@pytest.mark.parametrize("row", sorted(GUARD_MUTANTS))
def test_a_guard_fails_on_its_mutant(row):
    guard, *mutant = GUARD_MUTANTS[row]
    assert callable(globals().get(GUARDS[guard][0])), GUARDS[guard][0]
    assert_reported(guard, *mutant)


# ----------------------------------------------------------------------
# Count pins' mutants: an edit of a real module that keeps every answer and
# moves a count a runtime test pins, or drops a lock a runtime test holds a
# window open under. No lint sees one: a row's report is the line of its
# test that fails, and ``tests/tools/guard_kills.py`` runs the test there.
# ----------------------------------------------------------------------
FRAME_COSTS = "tests/core/test_frame_costs.py::"
COUNT_MUTANTS = {
    # id: (test, file, anchor, pasted after it, the line of the test that fails)
    # CT(u, beta) probing every node again, whatever its label ...
    "conflict_probes_every_label": (
        FRAME_COSTS + "test_a_query_of_distinct_labels_probes_no_pool_for_a_conflict",
        "src/repro/isomorphism/backtrack.py", "        labels = query.labels\n",
        "        labels = [None] * q\n", 'assert callers["_conflict_set"] == 0',
    ),
    # ... and a single-embedding frame entered at depth q to say "complete".
    "frame_entered_at_depth_q": (
        FRAME_COSTS + "test_no_single_frame_is_entered_at_depth_q", SEARCH,
        "a caller answers a complete assignment itself.\n        \"\"\"\n",
        "        if depth == self._q:\n            return None\n"
        "        if depth + 1 == self._q and self._single_frame(depth + 1) is not None:\n"
        "            return 0\n",
        "assert below_q[1] > 100 and min(below_q) == 1",
    ),
    # A cover snapshot taken again for level 0, which no overlap node reads.
    "level_zero_snapshot": (
        FRAME_COSTS + "test_a_level_zero_search_asks_no_pool_for_a_snapshot",
        "src/repro/core/phase1.py", "return tcand_snapshot(plan, covered, q) if level", " or True",
        "assert sum(snapshots.values()) == taken * query.size",
    ),
    # A drain that never wakes the threads asleep in accept().
    "drain_wakes_nobody": (
        "tests/service/test_server.py::test_a_drain_wakes_the_acceptors_and_answers_the_backlog",
        SERVER, "            while self._idle", " and False", "assert _running(server) == 2",
    ),
    # A dropped lock: a retire walking the warm table before it takes the
    # lock, while ``_keep`` inserts into it.
    "warm_retire_unlocked": (
        "tests/service/test_warm_record.py::test_a_retire_walks_the_table_under_the_lock",
        SERVER, "    def _retire_stale(self) -> None:\n",
        "        stale = [t for t, r in self._warm.items() if r.entry.index_cache.version]\n",
        "service._retire_stale()",
    ),
}


@pytest.mark.parametrize("row", sorted(COUNT_MUTANTS))
def test_a_count_pin_has_its_mutant(row):
    test, path, anchor, paste, trips = COUNT_MUTANTS[row]
    module, name = test.split("::")
    assert f"\ndef {name}(" in read(REPO / module) and trips in read(REPO / module)
    pasted(path, anchor, paste)
