"""Lint gates: ruff over the source tree, plus a docs-snippet compile check."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib.metadata
import importlib.util
import inspect
import json
import pkgutil
import py_compile
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List

import pytest

REPO = Path(__file__).resolve().parent.parent


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
# Unused imports, with the stdlib alone (ruff may not be installed): every
# name an import binds in a module of ``LINTED_TREES`` is read somewhere in
# that module, re-exported by its ``__all__`` or named by a quoted
# annotation.
# ----------------------------------------------------------------------
LINTED_TREES = ("src", "tests", "benchmarks", "examples")


def quoted_annotation_names(tree) -> set:
    """Names read inside the string annotations of ``tree``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(text: str) -> List[str]:
    """``line: name`` for every name an import in ``text`` binds and the
    module never uses."""
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= quoted_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and "__all__" in [ast.unparse(t) for t in node.targets]:
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{line}: {name}" for name, line in bound if name not in used]


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(REPO)}:{hit}"
        for tree in LINTED_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        for hit in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    # The scan sees an import pasted into a real module, and counts a name
    # as used when ``__all__`` or a quoted annotation is its only reader.
    text = (REPO / "src" / "repro" / "core" / "phase2.py").read_text(encoding="utf-8")
    line = text[: text.index(FUTURE_IMPORT)].count("\n") + 2
    pasted = "from itertools import chain\n"
    assert unused_imports(text.replace(FUTURE_IMPORT, FUTURE_IMPORT + pasted)) == [
        f"{line}: chain"
    ]
    for reader in ('__all__ = ["chain"]\n', 'def f(x: "chain") -> None:\n    pass\n'):
        assert unused_imports(pasted + reader) == []


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
        args = scope.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        names |= {arg.arg for arg in every if arg is not None}
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


def undefined_names(text: str) -> List[str]:
    """``line: name`` for every name ``text`` reads that nothing binds."""
    tree = ast.parse(text)
    module = scope_bindings(tree) | {
        name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names
    }
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
                args = node.args
                every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                hints = [arg.annotation for arg in every if arg is not None]
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
    return found


def test_no_undefined_names():
    offenders = [
        f"{path.relative_to(REPO)}:{hit}"
        for tree in LINTED_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        for hit in undefined_names(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    # The scan sees an import deleted from a module whose only reader of the
    # name is an annotation, and reads quoted annotations and class scopes.
    text = (REPO / "tests" / "service" / "test_cost_admission.py").read_text(encoding="utf-8")
    anchor = "from typing import Optional\n"
    assert text.count(anchor) == 1
    line = text[: text.index("def _service(config: Optional[")].count("\n")  # one line fewer
    assert undefined_names(text.replace(anchor, "")) == [f"{line}: Optional"]
    assert undefined_names('def f(x: "List[int]") -> None:\n    pass\n') == ["1: List"]
    assert undefined_names("class A:\n    B = 1\n    C = B\n") == []


def test_sources_compile():
    """Cheap always-on stand-in for the lint gate: every file compiles.

    In-process, so no bytecode is written: ``python -m py_compile`` writes
    ``__pycache__`` even under ``PYTHONDONTWRITEBYTECODE``, and a checkout
    holding bytecode imports faster than one that does not."""
    files = [*(REPO / "src").rglob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    files += (REPO / "examples").glob("*.py")
    for path in files:
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
    offenders = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0):
                continue
            if (node.module or "").split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            offenders += [
                f"{path}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name != "*" and not hasattr(module, alias.name)
                and importlib.util.find_spec(f"{node.module}.{alias.name}") is None
            ]
    return offenders


def test_example_imports_resolve():
    """Byte-compiling an example does not import it: a name deleted from the
    package would leave its example broken, silently."""
    examples = {
        str(p.relative_to(REPO)): p.read_text(encoding="utf-8")
        for p in sorted((REPO / "examples").glob("*.py"))
    }
    assert examples and not import_offenders(examples)
    # The check sees a deleted name imported again.
    stale = "from repro.isomorphism import QSearchEngine, count_embeddings_compressed\n"
    assert import_offenders({"examples/engine_comparison.py": stale}) == [
        "examples/engine_comparison.py: repro.isomorphism.count_embeddings_compressed"
    ]


# ----------------------------------------------------------------------
# Docs gate: every ```python block in the documentation must stay valid
# Python, so examples cannot rot silently when APIs move.
# ----------------------------------------------------------------------
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def extract_python_blocks(text: str) -> List[str]:
    """The contents of every ````` ```python ````` fenced block, in order."""
    blocks: List[str] = []
    current: List[str] = []
    in_block = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_block:
            if stripped.startswith("```"):
                blocks.append("\n".join(current))
                current = []
                in_block = False
            else:
                current.append(line)
        elif stripped == "```python":
            in_block = True
    return blocks


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_python_snippets_compile(doc: Path, tmp_path: Path):
    blocks = extract_python_blocks(doc.read_text(encoding="utf-8"))
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
# rename could silently drop a tree from the gates. Pin the trees the
# service PR added.
# ----------------------------------------------------------------------
def test_compile_gate_covers_service_package():
    service_files = sorted((REPO / "src" / "repro" / "service").rglob("*.py"))
    assert service_files, "service package missing from src/repro"
    names = {p.name for p in service_files}
    assert {"admission.py", "catalog.py", "client.py", "schemas.py", "server.py"} <= names
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    assert all(str(p) in gated for p in service_files)


def test_docs_gate_covers_service_doc():
    service_doc = REPO / "docs" / "service.md"
    assert service_doc.exists(), "docs/service.md missing"
    assert service_doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(service_doc.read_text(encoding="utf-8"))


def test_compile_gate_covers_objectives_module():
    objectives = REPO / "src" / "repro" / "coverage" / "objectives.py"
    assert objectives.exists(), "coverage/objectives.py missing"
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    assert str(objectives) in gated


def test_docs_gate_covers_objectives_doc():
    objectives_doc = REPO / "docs" / "objectives.md"
    assert objectives_doc.exists(), "docs/objectives.md missing"
    assert objectives_doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(objectives_doc.read_text(encoding="utf-8"))


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
    modules = [
        REPO / "src" / "repro" / "parallel" / "pool.py",
        REPO / "src" / "repro" / "service" / "multiworker.py",
    ]
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    for module in modules:
        assert module.exists(), f"{module} missing"
        assert str(module) in gated


def test_docs_gate_covers_parallel_doc():
    parallel_doc = REPO / "docs" / "parallel.md"
    assert parallel_doc.exists(), "docs/parallel.md missing"
    assert parallel_doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(parallel_doc.read_text(encoding="utf-8"))


def test_docs_gate_covers_mutation_doc():
    mutation_doc = REPO / "docs" / "mutation.md"
    assert mutation_doc.exists(), "docs/mutation.md missing"
    assert mutation_doc in DOC_FILES
    # The mutation contract ships runnable examples; the gate must see them.
    assert extract_python_blocks(mutation_doc.read_text(encoding="utf-8"))


def test_compile_gate_covers_cost_package():
    """The cost-estimation PR's tree stays under the compile gate."""
    cost_files = sorted((REPO / "src" / "repro" / "cost").rglob("*.py"))
    assert cost_files, "cost package missing from src/repro"
    names = {p.name for p in cost_files}
    assert {"__init__.py", "calibration.py", "estimator.py"} <= names
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    assert all(str(p) in gated for p in cost_files)
    accesslog = REPO / "src" / "repro" / "service" / "accesslog.py"
    assert accesslog.exists(), "service/accesslog.py missing"
    assert str(accesslog) in gated


def test_docs_gate_covers_cost_doc():
    cost_doc = REPO / "docs" / "cost.md"
    assert cost_doc.exists(), "docs/cost.md missing"
    assert cost_doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(cost_doc.read_text(encoding="utf-8"))


def test_compile_gate_covers_mutation_surface():
    """The live-mutation PR's load-bearing modules stay under the compile
    gate (and exist — a rename must not silently drop the write path)."""
    modules = [
        REPO / "src" / "repro" / "graph" / "labeled_graph.py",
        REPO / "src" / "repro" / "indexes" / "graph_cache.py",
        REPO / "src" / "repro" / "indexes" / "plans.py",
    ]
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    for module in modules:
        assert module.exists(), f"{module} missing"
        assert str(module) in gated


def test_compile_gate_covers_compression_surface():
    """The twin-compression PR's modules that stay are under the compile
    gate; its own module is gone (``STAYS_DELETED["twin_compression"]``)."""
    assert not (REPO / "src" / "repro" / "isomorphism" / "compression.py").exists()
    modules = [
        REPO / "src" / "repro" / "kernels" / "join.py",
        REPO / "src" / "repro" / "indexes" / "plans.py",
        REPO / "src" / "repro" / "indexes" / "graph_cache.py",
        REPO / "src" / "repro" / "datasets" / "synthetic.py",
    ]
    gated = {str(p) for p in (REPO / "src").rglob("*.py")}
    for module in modules:
        assert module.exists(), f"{module} missing"
        assert str(module) in gated


def test_docs_gate_covers_performance_doc():
    performance_doc = REPO / "docs" / "performance.md"
    assert performance_doc.exists(), "docs/performance.md missing"
    assert performance_doc in DOC_FILES
    # The doc must actually exercise the gate: at least one python block.
    assert extract_python_blocks(performance_doc.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Fork guard: compiled plans are the only engine path. The plan-free
# fork, its two config knobs and its CLI flag must not grow back.
# ----------------------------------------------------------------------
def fork_offenders(markers, extra_paths=(), sources=None):
    """``path: marker`` for every marker found in shipped code and docs — or,
    given ``sources`` (``{path: text}``), in exactly those texts."""
    if sources is None:
        scanned = [REPO / "README.md", *extra_paths]
        for tree, pattern in (
            ("src", "*.py"), ("docs", "*.md"), ("benchmarks", "*.py"), ("examples", "*.py"),
        ):
            scanned += sorted((REPO / tree).rglob(pattern))
        sources = {
            str(path.relative_to(REPO)): path.read_text(encoding="utf-8") for path in scanned
        }
    return [
        f"{path}: {marker!r}"
        for path, text in sources.items()
        for marker in markers
        if marker in text
    ]


def design_and_skill_files():
    """What ``fork_offenders`` scans beyond its default trees: DESIGN.md,
    EXPERIMENTS.md and every file under ``.claude/``."""
    return [
        REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
        *sorted(p for p in (REPO / ".claude").rglob("*") if p.is_file()),
    ]


def package_sources():
    """``{path relative to src/repro: source}`` for every module of the package."""
    package = REPO / "src" / "repro"
    return {
        str(p.relative_to(package)): p.read_text(encoding="utf-8") for p in package.rglob("*.py")
    }


# ----------------------------------------------------------------------
# The ``*_stays_deleted`` guards share one shape: names that must appear
# nowhere in shipped code and docs (``fork_offenders``' trees, DESIGN.md,
# EXPERIMENTS.md and ``.claude/``; tests, ROADMAP.md and CHANGES.md may
# still tell the history), and a mutant — a line pasted back after an
# anchor in a real module — that the scan must see. One row per guard
# here; the comment block above each test says what the row protects, and
# the test keeps whatever it checks beyond names.
# ----------------------------------------------------------------------
FUTURE_IMPORT = "from __future__ import annotations\n"
STAYS_DELETED = {
    # id: (names, module under src/repro, anchor, pasted after it, names the paste must trip)
    "plan_free_fork": (
        ("use_plans", "no-plan-cache", "plan is None", "plan is not None"),
        "core/dsql.py", FUTURE_IMPORT,
        "if plan is None and config.use_plans:\n", ("use_plans", "plan is None"),
    ),
    "backend_fork": (
        (
            "SetBackend", "make_backend", "default_backend",  # also catches set_default_backend
            "with_backend", "backend_name", "REPRO_GRAPH_BACKEND", "--backend",
        ),
        "graph/labeled_graph.py", FUTURE_IMPORT,
        "backend = make_backend(backend_name)\n", ("make_backend", "backend_name"),
    ),
    "evidence_fork": (
        ("BENCH_",) + tuple(
            "bench_" + name
            for name in "backend_microbench join_kernels parallel_microbench service_load "
            "multiworker objectives observability_overhead mutation cost compression".split()
        ),
        "cli.py", FUTURE_IMPORT, "SNAPSHOT = 'BENCH_mutation.json'\n", ("BENCH_",),
    ),
    "engine_fork": (
        ("OptimizedQSearchEngine", "isomorphism.optimized"),
        "isomorphism/qsearch.py", FUTURE_IMPORT,
        "from repro.isomorphism.optimized import OptimizedQSearchEngine\n",
        ("OptimizedQSearchEngine", "isomorphism.optimized"),
    ),
    "array_base": (
        (
            "indptr", "indices", "neighbors_array", "has_edges", "has_edge_searchsorted",
            "touched_vertices", "searchsorted", "AttachedGraph",
        ),
        "graph/labeled_graph.py", "        self._sets = sets\n",
        "import numpy as np\n        self.indices = np.empty(0, dtype=np.int32)\n", ("indices",),
    ),
    "shared_transport": (
        (
            "shared_memory", "resource_tracker", "publish_graph", "attach_graph",
            "SharedGraphDescriptor", "PublishedGraph", "SHARED_FORMAT_VERSION", "to_arrays",
            "from_arrays", "shared_state", "SharedMemoryError",
        ),
        "parallel/pool.py", "import multiprocessing\n",
        "from multiprocessing import shared_memory\n", ("shared_memory",),
    ),
    "global_weight_table": (
        ("top_sum", "_sorted_desc", "max_weight", "_weight_version", "degree_array"),
        "coverage/objectives.py", "        return min(total(per_node), total(per_union))\n",
        "        return k * self.profile.top_sum(self.q)\n", ("top_sum",),
    ),
    "storage_seam": (
        (
            "CSRBackend", "from_backend", "_backend", ".backend", "normalize_edges",
            "_sorted_rows", "graph/csr.py", "graph.csr",
        ),
        "graph/labeled_graph.py", "        self._sets = sets\n",
        "        self._backend = CSRBackend(labels, edges)\n", ("CSRBackend", "_backend"),
    ),
    "restamp": (
        ("on_compaction", "_sync_epoch"),
        "indexes/graph_cache.py", "        self.delta_seq = delta_seq\n",
        "        self._sync_epoch(epoch)\n", ("_sync_epoch",),
    ),
    "catch_up": (
        (
            "ops_since", "log_floor", "truncate_log", "_mutation_log", "def replay", ".replay(",
            "_apply_sync", "SyncHeader", "_base_seq",
        ),
        "indexes/graph_cache.py", "            self.delta_seq += len(ops)\n",
        "            self._mutation_log.extend(ops)\n", ("_mutation_log",),
    ),
    "adj_lock": (
        ("_adj_lock",),
        "indexes/graph_cache.py", "        self._pool_memo_size = candidate_memo_size\n",
        "        self._adj_lock = threading.Lock()\n", ("_adj_lock",),
    ),
    "frame_prologue": (
        ("_rcand", "_kernel_join_test"),
        "core/search.py", "        self._on_embedding: Optional[OnEmbedding] = None\n",
        "        self._rcand = self._kernel_join_test = None\n", ("_rcand", "_kernel_join_test"),
    ),
    "class_search": (
        (
            "_ClassSearch", "count_embeddings_compressed", "iter_embeddings_compressed",
            "enumerate_embeddings_compressed", "_iter_expansions", "lazy_expansions",
            "on_lazy_expansion",
        ),
        "isomorphism/qsearch.py", "        self._carry: Optional[Set[int]] = None\n",
        "        self.lazy_expansions = 0\n", ("lazy_expansions",),
    ),
    "plan_localized_memo": (
        ("localized_memo(", ".localized_memo", "plan._localized", "QueryPlan._localized"),
        "indexes/plans.py",
        "            entry = self._frames[key] = tuple(rows)\n        return entry\n",
        "\n    def localized_memo(self):\n        return self._localized\n", ("localized_memo(",),
    ),
    "label_wide_list_drop": (
        ("key[0] in dirty", ".lists.clear()"),
        "indexes/graph_cache.py", "            self.delta_seq += len(ops)\n",
        "            for key in [key for key in self._pool_memo if key[0] in dirty_per_label]:\n"
        "                self._pool_memo[key].lists.clear()\n",
        ("key[0] in dirty", ".lists.clear()"),
    ),
    # A pool's view, mass and lists live on its entry: the key-rebuilding
    # accessors, the memos beside the entry and the plan's references to
    # the views stay deleted, and so do the label-grouped rows a miss read.
    "pool_view": (
        ("pool_view(", "_pool_views", "_pool_sets"),
        "indexes/plans.py", "        view = entry.view\n",
        "        view = view or cache.pool_view(*self.profiles[u], self.pools[u])\n",
        ("pool_view(",),
    ),
    "pool_degree_mass": (
        ("pool_degree_mass",),
        "cost/estimator.py", "    mass_of = cache.degree_mass\n",
        "    mass_of = cache.pool_degree_mass\n", ("pool_degree_mass",),
    ),
    "pool_lists": (
        ("_pool_lists", "pool_lists("),
        "indexes/graph_cache.py", "            entry = memo[key] = PoolEntry(members, lists={})\n",
        "            self._pool_lists[key] = entry.lists\n", ("_pool_lists",),
    ),
    "label_grouping": (
        ("label_neighbors", "_grouped_rows", "_group_row"),
        "indexes/candidates.py", "        if hit is None:\n",
        "            run = self.cache.label_neighbors(fv, self.cache.label_ids[u])\n",
        ("label_neighbors",),
    ),
    # Each paper table is computed once, in repro.experiments: the bench
    # suite's batch loops and adapters and the unread grid class stay deleted.
    "bench_copies": (
        (
            "run_dsql_batch", "run_solver_batch", "com_adapter", "firstk_adapter",
            "ExperimentGrid", "FIG6_GRID", "FIG8_GRID",
        ),
        "experiments/workloads.py", 'FIG8_DATASETS = ["yeast", "human", "uspatent"]\n',
        "FIG8_GRID = ExperimentGrid(datasets=FIG8_DATASETS)\n", ("ExperimentGrid", "FIG8_GRID"),
    ),
    "profiling_hooks": (
        (
            "ProfilingHooks", "observability.hooks", "on_level_start", "on_embedding_emitted",
            "on_deadline_tick", "embedding_emitted", "self.hooks",
        ),
        "observability/__init__.py", "        self.tracer = tracer\n",
        "        self.hooks = hooks\n", ("self.hooks",),
    ),
    # What no product path entered: the networkx bridge, the frozenset
    # filter stack, second spellings of the Table 3 and Table 4 loops, thin
    # wrappers over a call their callers already make, and two generators
    # no dataset was built with.
    "test_only_surface": (
        (
            "networkx", "passes_all_filters", "query_signature", "indexes.signature",
            "run_pipeline", "run_all_strategies", "PipelineResult", "first_k_embeddings",
            "enumerate_embeddings_optimized", "has_embedding", "compare_solvers",
            "iter_query_sets", "objective_coverage_bound", "build_candidate_index",
            "erdos_renyi_graph", "skewed_labels", "induced_match_subgraph", "matched_edges",
        ),
        "isomorphism/qsearch.py", "    return count, not engine.budget_exhausted\n",
        "\n\ndef first_k_embeddings(graph, query, k):\n"
        "    return enumerate_embeddings(graph, query, limit=k)\n",
        ("first_k_embeddings",),
    ),
    # One join rule: a plan chooses no kernel per depth, so its kernel
    # table, the class pools, both gates, the adjacency-mask memo and the
    # switch that turned localization off stay deleted.
    "kernel_gates": (
        (
            "BITSET_MIN_POOL", "CBITSET_MAX_RATIO", "class_pools", "class_mask", "_adj_masks",
            "DEFAULT_ADJACENCY_MEMO_SIZE", ".kernels[", "localized_search",
        ),
        "indexes/plans.py", "    u = plan.order[depth]\n",
        "    kind = plan.kernels[depth]\n", (".kernels[",),
    ),
    # One join mechanism: the twin-class partition, its cache slot and split
    # repair, the compressed join and its fold, the CLI flag and the metric
    # that counted class frames stay deleted (the names perfbench harness
    # 1.0 reads are HARNESS_ONLY rows).
    "twin_compression": (
        (
            "CompressedGraph", "isomorphism.compression", "compressed()", "_compressed",
            "class_join_mask", "joinable_kernel", "--compression", "compression.class_frames",
        ),
        "indexes/graph_cache.py", "        return estimator\n",
        "        self._compressed = CompressedGraph(self.graph)\n",
        ("CompressedGraph", "_compressed"),
    ),
    # A write is its delta: the counter a compaction restarted, the
    # checkpoint, its default threshold, the metric that counted it and the
    # client and CLI spellings of the threshold stay deleted (what harness
    # 1.0 still sends or reads is a HARNESS_ONLY shim).
    "compaction": (
        (
            "compact()", "def compact(", ".delta_size", "def delta_size", "_delta_edges",
            "DEFAULT_COMPACTION_THRESHOLD", "service.mutations.compactions",
            "--compaction-threshold", "args.compaction_threshold",
            'payload["compaction_threshold"]',
        ),
        "graph/labeled_graph.py", "        self.num_edges += 1 if present else -1\n",
        "        self._delta_edges += 1\n", ("_delta_edges",),
    ),
}


def assert_stays_deleted(row: str) -> str:
    """The row's names are gone from every shipped file, and pasting its
    mutant back is seen; returns the mutated module text."""
    names, path, anchor, pasted, tripped = STAYS_DELETED[row]
    offenders = fork_offenders(names, design_and_skill_files())
    assert not offenders, offenders
    text = package_sources()[path]
    assert text.count(anchor) == 1, (row, anchor)
    mutant = text.replace(anchor, anchor + pasted)
    assert fork_offenders(names, sources={path: mutant}) == [f"{path}: {n!r}" for n in tripped]
    return mutant


def test_plan_free_fork_stays_deleted():
    from repro.core.config import DSQLConfig

    assert_stays_deleted("plan_free_fork")
    assert not {f.name for f in dataclasses.fields(DSQLConfig)} & {"use_plans", "plan_cache"}


# ----------------------------------------------------------------------
# Fork guard: one graph storage class. The ``set`` backend and every way
# of selecting a backend must not grow back.
# ----------------------------------------------------------------------
def test_backend_fork_stays_deleted():
    import repro.graph
    from repro.graph import GraphBuilder, LabeledGraph, QueryGraph
    from repro.graph.io import load_edge_list, load_json, load_query

    assert_stays_deleted("backend_fork")
    assert not set(repro.graph.__all__) & {
        "CSRBackend", "SetBackend", "BACKEND_NAMES", "default_backend", "make_backend",
        "set_default_backend",
    }
    for fn in (
        LabeledGraph.__init__,
        QueryGraph.__init__,
        GraphBuilder.build,
        load_edge_list,
        load_json,
        load_query,
    ):
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
# from evaluation).
# ----------------------------------------------------------------------
BENCH_TIMING = ("perf_counter", "QueryRecord", "BatchSummary(")


def test_bench_copies_stay_deleted():
    assert_stays_deleted("bench_copies")


def test_bench_scripts_time_nothing():
    scripts = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted((REPO / "benchmarks").glob("bench_*.py"))
    }
    assert fork_offenders(BENCH_TIMING, sources=scripts) == []
    name, anchor = "bench_table2_embedding_counts.py", "    for name in DATASETS:\n"
    assert scripts[name].count(anchor) == 1
    mutant = scripts[name].replace(anchor, "    start = time.perf_counter()\n" + anchor)
    assert fork_offenders(BENCH_TIMING, sources={name: mutant}) == [f"{name}: 'perf_counter'"]


def test_evidence_ledger_names_resolve():
    """docs/performance.md, "Where the evidence lives": every backticked name
    in a row's last cell is a ``BENCHMARK.json`` metric or workload, or a
    path (``file`` or ``file::Class::test``) that exists and defines it."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    known |= {w["name"] for w in spec["workloads"]}
    text = (REPO / "docs" / "performance.md").read_text(encoding="utf-8")
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
                tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
                defined = {getattr(node, "name", None) for node in ast.walk(tree)}
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
def loop_iters(node) -> str:
    """Source of what a ``for`` loop or comprehension iterates ('' for any other node)."""
    iters = [node.iter] if isinstance(node, ast.For) else [
        g.iter for g in getattr(node, "generators", ())
    ]
    return " ".join(ast.unparse(i) for i in iters)


def core_census(sources):
    """``{what: [path:line, ...]}`` over ``{path: source}``: every raise of
    the two budget errors, and every loop over ``query.neighbors(..)`` whose
    body probes ``has_edge``."""
    census = {"BudgetExceeded": [], "DeadlineExceeded": [], "probe loop": []}
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", None)
                if name in census:
                    census[name].append(f"{path}:{node.lineno}")
            if "query.neighbors(" in loop_iters(node) and any(
                getattr(n, "id", getattr(n, "attr", None)) == "has_edge"
                for n in ast.walk(node)
            ):
                census["probe loop"].append(f"{path}:{node.lineno}")
    return census


def test_engine_fork_stays_deleted():
    assert_stays_deleted("engine_fork")
    src = REPO / "src"
    assert not (src / "repro" / "isomorphism" / "optimized.py").exists()
    sources = {
        str(p.relative_to(src)): p.read_text(encoding="utf-8") for p in src.rglob("*.py")
    }
    engines = re.findall(r"^class (\w*SearchEngine)\b", "\n".join(sources.values()), re.M)
    assert sorted(engines) == ["LevelSearchEngine", "QSearchEngine"]
    census = {what: [s.split(":")[0] for s in sites] for what, sites in core_census(sources).items()}
    meter, joinable = ["repro/isomorphism/backtrack.py"], ["repro/isomorphism/joinable.py"]
    assert census == {"BudgetExceeded": meter, "DeadlineExceeded": meter, "probe loop": joinable}
    # The census sees a private budget check pasted back into a baseline.
    pasted = "def charge(spent, limit):\n    if spent > limit:\n        raise BudgetExceeded('x')\n"
    assert core_census({"com.py": pasted})["BudgetExceeded"] == ["com.py:3"]


# ----------------------------------------------------------------------
# Fork guard: a frame's prologue lives in the frame. The per-frame helper
# calls (candidate hop, closure-building join test) must not grow back, the
# level engine builds no function and probes no edge itself, and the budget
# errors and the conflict rule keep their one home in ``backtrack.py``.
# ----------------------------------------------------------------------
def frame_offenders(text):
    """What ``core/search.py`` must not contain: a ``lambda``, a ``def``
    nested in a function, or the name ``has_edge``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Lambda):
            found.append(f"lambda:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"nested def {inner.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    if "has_edge" in text:
        found.append("has_edge")
    return found


def test_frame_prologue_stays_folded():
    from repro.core.config import DSQLConfig

    src = REPO / "src"
    sources = {
        str(p.relative_to(src)): p.read_text(encoding="utf-8") for p in src.rglob("*.py")
    }
    assert_stays_deleted("frame_prologue")
    search = sources["repro/core/search.py"]
    assert not frame_offenders(search)
    # One raise site per budget error and one conflict rule, all in backtrack.py.
    backtrack = "repro/isomorphism/backtrack.py"
    census = core_census(sources)
    assert [s.split(":")[0] for s in census["BudgetExceeded"]] == [backtrack]
    assert [s.split(":")[0] for s in census["DeadlineExceeded"]] == [backtrack]
    for rule in ("def _conflict_set", "def _child_failed"):
        assert [path for path, text in sources.items() if rule in text] == [backtrack], rule
        assert sources[backtrack].count(rule) == 1
    assert len(dataclasses.fields(DSQLConfig)) == 18
    # The guard sees its mutants: a closure pasted back into a frame, a
    # second raise site pasted beside the in-place charge.
    closure = search.replace(
        "        joined = None\n",
        "        joined = None\n        joinable = lambda v: v not in used\n",
        1,
    )
    assert frame_offenders(closure) and closure != search
    second_raise = search.replace(
        "                meter.check()\n",
        "                raise BudgetExceeded('node budget exhausted')\n",
        1,
    )
    assert second_raise != search
    mutated = core_census({**sources, "repro/core/search.py": second_raise})
    assert len(mutated["BudgetExceeded"]) == 2
    nested = "def frame(self):\n    def joinable(v):\n        return self.graph.has_edge(v, 0)\n"
    assert frame_offenders(nested) == ["nested def joinable:2", "has_edge"]


# ----------------------------------------------------------------------
# Fork guard: one reSort. The breadth-first walk that gives every query node
# a father lives in ``queries/qflist.py``; the engine's frame table and the
# baselines' ``QFList`` both read its order (``resort_order``), so a second
# walk — the one ``QueryPlan.frames`` ran through ``resort`` and its
# quadratic statistics — must not grow back.
# ----------------------------------------------------------------------
def father_walk_sites(sources):
    """``path:line`` over ``{path: source}`` of every loop that grows the
    list it walks by ``(child, father)`` pairs: an ``X.append(..)`` of a
    two-element tuple or two-argument call inside a ``for`` / ``while``
    whose header names ``X``."""
    sites = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            header = node.iter if isinstance(node, ast.For) else node.test
            walked = {n.id for n in ast.walk(header) if isinstance(n, ast.Name)}
            if any(
                isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "append"
                and ast.unparse(call.func.value) in walked and len(call.args) == 1
                and len(getattr(call.args[0], "elts", getattr(call.args[0], "args", ()))) == 2
                for call in ast.walk(node)
            ):
                sites.append(f"{path}:{node.lineno}")
    return sites


def test_resort_walks_in_one_place():
    sources = package_sources()
    (site,) = father_walk_sites(sources)
    assert site.startswith("queries/qflist.py:")
    assert "resort(" not in sources["indexes/plans.py"]
    # The census sees the walk the frame table used to run through
    # ``resort``, pasted back into the plan module.
    text = sources["indexes/plans.py"]
    anchor = "            order = resort_order(self.qlist, *basis, qovp)\n"
    assert text.count(anchor) == 1
    mutant = text.replace(
        anchor,
        anchor + "            entries = [QFEntry(order[0][0], NO_FATHER)]\n"
        "            placed, cursor = {order[0][0]}, 0\n"
        "            while len(entries) < query.size:\n"
        "                u = entries[cursor].node\n"
        "                for w in sorted(set(query.neighbors(u)) - placed):\n"
        "                    entries.append(QFEntry(w, u))\n"
        "                    placed.add(w)\n"
        "                cursor += 1\n",
    )
    (pasted,) = father_walk_sites({"indexes/plans.py": mutant})
    assert pasted.startswith("indexes/plans.py:")


# ----------------------------------------------------------------------
# Fork guard: one implementation of Section 5.1. ``N(father's match) ∩
# candS(u)`` is ``CandidateIndex.localized`` — the father's row filtered by
# the pool set in C, memoized on the pool's memo entry (the plan's memo of
# them, the memo beside the entry, the label-grouped rows a miss once read
# and a write's drop of a dirty label's lists stay deleted); no engine,
# baseline or index walks a neighbor row in the interpreter asking
# membership per element.
# ----------------------------------------------------------------------
def row_walk_sites(sources):
    """``path:line`` over ``{path: source}`` of every loop or comprehension
    that iterates ``graph.neighbors(..)`` and tests membership (``in`` /
    ``not in`` / ``is_candidate``) inside it."""
    sites = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if "graph.neighbors(" in loop_iters(node) and any(
                isinstance(n, (ast.In, ast.NotIn)) or getattr(n, "attr", None) == "is_candidate"
                for n in ast.walk(node)
            ):
                sites.append(f"{path}:{node.lineno}")
    return sites


def test_localization_stays_in_one_place():
    from repro.core.config import DSQLConfig

    package = REPO / "src" / "repro"
    sources = {
        str(p.relative_to(package)): p.read_text(encoding="utf-8")
        for tree in ("core", "baselines", "indexes")
        for p in (package / tree).rglob("*.py")
    }
    assert len(sources) > 15 and "indexes/graph_cache.py" in sources
    assert not row_walk_sites(sources)
    # The pass sees both lines this guard replaced, pasted back, and the
    # miss regrown as a row walk with a membership test.
    engine_line = (
        "base = [w for w in self.graph.neighbors(self._assignment[father]) if w in pool]\n"
    )
    baseline_loop = (
        "for v in graph.neighbors(assignment[entry.father]):\n"
        "    if not candidates.is_candidate(u, v):\n"
        "        continue\n"
        "    charge()\n"
    )
    assert row_walk_sites({"search.py": engine_line}) == ["search.py:1"]
    assert row_walk_sites({"com.py": baseline_loop}) == ["com.py:1"]
    view_text = sources["indexes/candidates.py"]
    anchor = "filter(self._pool_set(u).__contains__, self.graph.neighbors(fv))"
    assert view_text.count(anchor) == 1
    walked = view_text.replace(
        anchor, "w for w in self.graph.neighbors(fv) if w in self._pool_set(u)"
    )
    (site,) = row_walk_sites({"indexes/candidates.py": walked})
    assert site.startswith("indexes/candidates.py:")
    # The sorted-list restriction nothing called stays deleted, and neither
    # memo (localized lists, frame table) grew a switch or a size. The lists
    # live beside the pool, so the plan's memo of them stays deleted, and a
    # write pops the lists it changed, so the drop of a dirty label's lists
    # stays deleted too.
    offenders = fork_offenders(("def restricted", ".restricted("))
    assert not offenders, offenders
    assert_stays_deleted("plan_localized_memo")
    assert_stays_deleted("label_wide_list_drop")
    assert_stays_deleted("pool_lists")
    assert_stays_deleted("label_grouping")
    assert len(dataclasses.fields(DSQLConfig)) == 18


# ----------------------------------------------------------------------
# Fork guard: one way for a graph to reach a worker process — it is started
# with it (fork inherits, spawn pickles). The shared-memory transport, the
# CSR publication format it shipped and the array base before that must not
# grow back: the storage holds exactly the views the engine reads, nothing
# under ``graph/`` imports numpy, and no segment is created anywhere.
# ----------------------------------------------------------------------
STORAGE_SLOTS = sorted((
    "labels", "num_edges", "label_table", "label_to_id",
    "_rows", "_degrees", "_sets", "_label_ids", "_cache", "name",
))


def numpy_importers(sources, prefix: str):
    """Paths under ``prefix`` in ``{path: source}`` that import numpy."""
    return sorted(
        path for path, text in sources.items()
        if path.startswith(prefix) and re.search(r"^\s*(import|from) numpy\b", text, re.M)
    )


def test_shared_memory_transport_stays_deleted():
    from repro.graph import LabeledGraph
    from repro.parallel import WorkerPool

    # The pass sees the transport pasted back into the pool, and the array
    # base pasted back into the graph's constructor.
    assert_stays_deleted("shared_transport")
    mutant = assert_stays_deleted("array_base")
    assert numpy_importers({"graph/labeled_graph.py": mutant}, "graph/") == [
        "graph/labeled_graph.py"
    ]
    assert not (REPO / "src" / "repro" / "graph" / "shared.py").exists()
    assert numpy_importers(package_sources(), "graph/") == []
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
    assert not (REPO / "src" / "repro" / "graph" / "csr.py").exists()
    assert not [n for n in ("backend", "from_backend", "_adopt") if hasattr(LabeledGraph, n)]
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
def restamp_census(sources):
    """``{what: [path:function, ...]}`` over ``{path: source}``: every
    assignment to an ``.epoch`` attribute, every ``next(_EPOCHS)``, every
    ``.delta_seq`` assigned the constant 0, every ``plan_cache.clear()``."""
    census = {"epoch =": [], "next(_EPOCHS)": [], "delta_seq = 0": [], "plan_cache.clear(": []}
    for path, text in sources.items():
        functions = [
            n for n in ast.walk(ast.parse(text))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            for node in ast.walk(function):
                site = f"{path}:{function.name}"
                if isinstance(node, ast.Call):
                    call = ast.unparse(node)
                    if call == "next(_EPOCHS)":
                        census["next(_EPOCHS)"].append(site)
                    elif call.endswith("plan_cache.clear()"):
                        census["plan_cache.clear("].append(site)
                    continue
                if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in (t for tgt in targets for t in ast.walk(tgt)):
                    attr = getattr(target, "attr", None)
                    if attr == "epoch":
                        census["epoch ="].append(site)
                    elif attr == "delta_seq" and ast.unparse(node.value) == "0":
                        census["delta_seq = 0"].append(site)
    return census


def test_epoch_is_stamped_once():
    from repro.core.config import DSQLConfig
    from repro.indexes.graph_cache import GraphIndexCache

    sources = package_sources()
    constructor = ["indexes/graph_cache.py:__init__"]
    assert restamp_census(sources) == {
        "epoch =": constructor, "next(_EPOCHS)": constructor,
        "delta_seq = 0": [], "plan_cache.clear(": [],
    }
    assert not hasattr(GraphIndexCache, "on_compaction")
    assert_stays_deleted("restamp")
    assert len(dataclasses.fields(DSQLConfig)) == 18
    # The census sees the re-stamp pasted into a batched write.
    graph_text = sources["graph/labeled_graph.py"]
    anchor = "            self._cache.apply_delta(applied)\n"
    assert graph_text.count(anchor) == 1
    mutant = graph_text.replace(
        anchor,
        anchor + "            self._cache.epoch = next(_EPOCHS)\n"
        "            self._cache.delta_seq = 0\n            self._cache.plan_cache.clear()\n",
    )
    writer = ["graph/labeled_graph.py:mutate"]
    assert restamp_census({"graph/labeled_graph.py": mutant}) == {
        "epoch =": writer, "next(_EPOCHS)": writer,
        "delta_seq = 0": writer, "plan_cache.clear(": writer,
    }


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
    assert not hasattr(LabeledGraph, "replay")
    graph = LabeledGraph(["a", "b", "a"], [(0, 1)])
    cache = graph.index_cache()
    slots = set(cache.__getstate__())
    graph.mutate([("add_edge", 1, 2), ("add_vertex", "b"), ("remove_edge", 0, 1)])
    state = cache.__getstate__()
    assert set(state) == slots <= set(GraphIndexCache.__slots__)
    assert not [kind for kind in ("add_edge", "add_vertex", "remove_edge") if kind in repr(state)]


# ----------------------------------------------------------------------
# Census guard: one rule for derived state. Every slot of the index cache, a
# compiled plan and the plan cache is either pickled (named here) or declared
# in its class's table of derived slots, which drives construction and
# unpickling; every derived slot of the index cache names the check that
# holds it to the graph; the cache builds one lock (the bitset memo and its
# own lock are gone); and only the cache reads ``.delta_seq`` — every other memo derived
# from the graph is kept through ``GraphIndexCache.memoize``.
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
DERIVED_CHECKS = {
    "_lock": ("tests/graph/test_shared.py", "assert got._lock is not cache._lock"),
    "_metrics": ("tests/graph/test_shared.py", "got._metrics is None"),
    "_mask_signatures": ("tests/indexes/test_delta_repair.py", "repaired._mask_signatures.items()"),
    "_pool_memo": (
        "tests/indexes/test_delta_repair.py", "assert members == fresh._scan(*key), key",
    ),
    "_pool_keys": (
        "tests/indexes/test_delta_repair.py",
        "assert sorted(indexed) == sorted(repaired._pool_memo)",
    ),
    "plan_cache": ("tests/indexes/test_delta_repair.py", "repaired.plan_cache._memo.items()"),
    "_cost_estimator": (
        "tests/cost/test_estimator.py",
        "assert session.estimate(query) == rebuilt.estimate(query)",
    ),
}


def slot_census(text, cls_name, table):
    """``(slots, declared)`` of class ``cls_name`` in ``text``: the string
    names written in its ``__slots__`` and the first field of each row of
    its ``table``."""
    cls = next(
        n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ClassDef) and n.name == cls_name
    )
    found = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    slots = [
        n.value for n in ast.walk(found["__slots__"])
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    declared = [row.elts[0].value for row in found[table].elts]
    return slots, declared


def census_offenders(sources):
    """Over ``{path: source}``: slots neither pickled nor declared, declared
    index-cache slots with no check, and ``.delta_seq`` reads outside the cache."""
    offenders = []
    for cls_name, (path, table) in DERIVED_TABLES.items():
        slots, declared = slot_census(sources[path], cls_name, table)
        offenders += [
            f"{cls_name}.{slot}: undeclared" for slot in slots
            if slot not in PICKLED_SLOTS[cls_name] and slot not in declared
        ]
        if cls_name == "GraphIndexCache":
            offenders += [
                f"{cls_name}.{slot}: no check" for slot in declared if slot not in DERIVED_CHECKS
            ]
    for path, text in sorted(sources.items()):
        if path != "indexes/graph_cache.py":
            offenders += [
                f"{path}:{n.lineno}: reads {ast.unparse(n)}" for n in ast.walk(ast.parse(text))
                if isinstance(n, ast.Attribute) and n.attr == "delta_seq"
                and isinstance(n.ctx, ast.Load)
            ]
    return offenders


def test_every_derived_slot_is_declared():
    import threading

    from repro.indexes.graph_cache import GraphIndexCache
    from repro.indexes.plans import PlanCache, QueryPlan

    sources = package_sources()
    assert not census_offenders(sources)
    for cls in (GraphIndexCache, QueryPlan, PlanCache):
        declared = [row[0] for row in getattr(cls, DERIVED_TABLES[cls.__name__][1])]
        assert sorted(cls.__slots__) == sorted(PICKLED_SLOTS[cls.__name__] + tuple(declared))
    assert set(DERIVED_CHECKS) == {slot for slot, _, _ in GraphIndexCache._DERIVED}
    for path, check in DERIVED_CHECKS.values():
        assert check in (REPO / path).read_text(encoding="utf-8"), (path, check)
    locks = [slot for slot, empty, _ in GraphIndexCache._DERIVED if empty is threading.Lock]
    assert locks == ["_lock"] and "Lock()" not in sources["indexes/graph_cache.py"]
    assert_stays_deleted("adj_lock")
    # The census sees a memo slot pasted into the cache with no row ...
    text = sources["indexes/graph_cache.py"]
    anchor = '        "pool_entries_dropped",\n'
    assert text.count(anchor) == 1
    mutant = text.replace(anchor, anchor + '        "_plan_lists",\n')
    assert census_offenders({**sources, "indexes/graph_cache.py": mutant}) == [
        "GraphIndexCache._plan_lists: undeclared"
    ]
    # ... and a plan store that checks the version itself again.
    text = sources["indexes/plans.py"]
    anchor = "    def _keep(self, key, plan: QueryPlan) -> None:\n"
    assert text.count(anchor) == 1
    mutant = text.replace(anchor, anchor + "        assert cache.delta_seq == seq\n")
    line = mutant[: mutant.index("cache.delta_seq == seq")].count("\n") + 1
    assert census_offenders({**sources, "indexes/plans.py": mutant}) == [
        f"indexes/plans.py:{line}: reads cache.delta_seq"
    ]


# ----------------------------------------------------------------------
# Fork guard: one search engine per job. The class-level search (its own
# order, pools, budget meter and recursion), its three entry points, its
# two expanders and their counter must not grow back; neither may the
# module that held them (``STAYS_DELETED["twin_compression"]``).
# ----------------------------------------------------------------------
def test_class_search_stays_deleted():
    assert_stays_deleted("class_search")
    # The eager expander's name is a substring of ``nodes_expanded``, so its
    # module is looked up rather than scanned for.
    assert importlib.util.find_spec("repro.isomorphism.compression") is None


# ----------------------------------------------------------------------
# Fork guard: the weighted ceiling is the query's. ``weighted-vertex`` reads
# both of its bounds off ``candS(u)`` and its weights off the graph (the
# cache's degree list, or the explicit table); the graph-global sorted weight
# table, its per-version rebuild and the numpy twin of the degree list must
# not grow back.
# ----------------------------------------------------------------------
def test_global_weight_table_stays_deleted():
    from repro.core.config import DSQLConfig

    # The guard sees the graph-global ceiling pasted back beside the new one.
    assert_stays_deleted("global_weight_table")
    sources = package_sources()
    assert numpy_importers(sources, "indexes/") == numpy_importers(sources, "cost/") == []
    assert len(dataclasses.fields(DSQLConfig)) == 18
    mutant = sources["cost/estimator.py"].replace("import math\n", "import math\nimport numpy as np\n")
    assert numpy_importers({"cost/estimator.py": mutant}, "cost/") == ["cost/estimator.py"]


# ----------------------------------------------------------------------
# Fork guard: the memo lock lives on the memo. ``DSQL`` guards its result
# memo itself, so nothing outside ``core/dsql.py`` names the dict or its
# lock, the catalog builds no lock beyond its read-write lock and the
# session LRU's, and the state that worked around an entry-held memo lock
# — the executor's LRU mirror, the memo peek, the executor cache with its
# leases — must not grow back; nor the per-filter toggles and the per-plan
# spec copies deleted with them.
# ----------------------------------------------------------------------
MEMO_WORKAROUND_MARKERS = (
    "_plan_searches", "_never_computed", "_executor_leases", "_executors_retired",
    "_acquire_executor", "_release_executor", "DEFAULT_EXECUTOR_CACHE", "max_executors",
    "use_degree_filter", "use_signature_filter",
    "._specs", '"_specs"',  # the attribute and its slot, not dump_specs / warm_from_specs
)
MEMO_PRIVATE_NAMES = ("_query_cache", "_memo_lock")


def lock_constructions(text):
    """``Class.target`` for every ``Lock()`` / ``RLock()`` built in ``text``
    (``Class.?`` where the call is not the value of a plain assignment)."""
    sites = []
    for cls in (n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ClassDef)):
        targets = {
            id(node.value): ast.unparse(node.targets[0]).rsplit(".", 1)[-1]
            for node in ast.walk(cls) if isinstance(node, ast.Assign)
        }
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] in (
                "Lock", "RLock",
            ):
                sites.append(f"{cls.name}.{targets.get(id(node), '?')}")
    return sites


def memo_lock_offenders(sources):
    """Over ``{path relative to src/repro: source}``: modules other than
    ``core/dsql.py`` naming the memo or its lock, and locks the catalog
    builds outside ``_ReadWriteLock`` and ``_session_lock``."""
    found = [
        f"{path}: {name}"
        for path, text in sorted(sources.items())
        for name in MEMO_PRIVATE_NAMES
        if path != "core/dsql.py" and name in text
    ]
    found += [
        f"service/catalog.py: {site}"
        for site in lock_constructions(sources["service/catalog.py"])
        if not site.startswith("_ReadWriteLock.") and site != "CatalogEntry._session_lock"
    ]
    return found


def test_memo_lock_lives_on_the_memo():
    from repro.core.config import DSQLConfig
    from repro.service.catalog import CatalogEntry, GraphCatalog

    sources = package_sources()
    offenders = fork_offenders(MEMO_WORKAROUND_MARKERS, design_and_skill_files())
    assert not offenders, offenders
    assert not memo_lock_offenders(sources)
    assert all(name in sources["core/dsql.py"] for name in MEMO_PRIVATE_NAMES)
    assert lock_constructions(sources["service/catalog.py"]) == ["CatalogEntry._session_lock"]
    assert not hasattr(CatalogEntry, "close") and not hasattr(GraphCatalog, "close")
    assert "max_executors" not in inspect.signature(CatalogEntry.__init__).parameters
    assert len(dataclasses.fields(DSQLConfig)) == 18
    # Its mutants are rows of GUARD_MUTANTS.


# ----------------------------------------------------------------------
# Fork guard: a pool is summed where it lives. The degree mass and the set
# view of a candidate pool live on its memo entry (``PoolEntry``, repaired
# or retired with it; the key-rebuilding accessors and the plan's references
# to the views stay deleted), so nothing under ``cost/`` reads the degree
# list, and a pool's frozenset is built once, in ``indexes/graph_cache.py``
# (``PoolEntry.set_view``), never by a reader under ``core/``,
# ``isomorphism/`` or ``indexes/`` beside it; the cost probe is a reader of
# the graph it prices; a query says its own neighbourhood signature without
# building an index cache for its handful of nodes.
# ----------------------------------------------------------------------
def functions_named(text, name):
    return [
        n for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.FunctionDef) and n.name == name
    ]


POOL_VIEW_HOMES = ("indexes/graph_cache.py",)
POOL_VIEW_READERS = ("core/", "isomorphism/", "indexes/candidates.py", "indexes/plans.py")


def pool_view_builds(text):
    """The ``frozenset(...)`` calls over a pool (an argument naming one or its members)."""
    return [
        n for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "frozenset"
        and n.args and any(word in ast.unparse(n.args[0]) for word in ("pool", "members"))
    ]


def pool_sum_offenders(sources):
    """``path: what`` over ``{path: source}``: a ``degrees[...]`` /
    ``degrees.__getitem__`` read under ``cost/``; a pool's ``frozenset``
    built other than once in each of ``POOL_VIEW_HOMES`` (``path:line:`` for
    one built by a reader); ``estimate_cost`` in the catalog not bracketed by
    ``acquire_read`` / ``release_read``; ``QueryGraph.neighborhood_signature``
    missing or calling ``index_cache``."""
    offenders = []
    for path in POOL_VIEW_HOMES:
        built = len(pool_view_builds(sources[path]))
        if built != 1:
            offenders.append(f"{path}: builds a pool's frozenset {built} times")
    for path, text in sources.items():
        if path.startswith(POOL_VIEW_READERS):
            offenders += [
                f"{path}:{n.lineno}: builds {ast.unparse(n)}" for n in pool_view_builds(text)
            ]
        if not path.startswith("cost/"):
            continue
        for node in ast.walk(ast.parse(text)):
            read = isinstance(node, ast.Subscript) or (
                isinstance(node, ast.Attribute) and node.attr == "__getitem__"
            )
            if read and ast.unparse(node.value).endswith("degrees"):
                offenders.append(f"{path}: reads {ast.unparse(node)}")

    def calls(function):
        return {
            n.func.attr for n in ast.walk(function)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }

    probes = functions_named(sources["service/catalog.py"], "estimate_cost")
    if len(probes) != 1 or not {"acquire_read", "release_read"} <= calls(probes[0]):
        offenders.append("service/catalog.py: estimate_cost is not a reader")
    own = functions_named(sources["graph/query_graph.py"], "neighborhood_signature")
    if len(own) != 1 or "index_cache" in calls(own[0]):
        offenders.append("graph/query_graph.py: neighborhood_signature is not the query's own")
    return offenders


def test_a_pool_is_summed_where_it_lives():
    from repro.core.config import DSQLConfig

    sources = package_sources()
    assert not pool_sum_offenders(sources)
    assert len(dataclasses.fields(DSQLConfig)) == 18
    assert_stays_deleted("pool_view")
    assert_stays_deleted("pool_degree_mass")
    # The guard sees the pool walk pasted back into the estimator ...
    text = sources["cost/estimator.py"]
    anchor = "    mass_of = cache.degree_mass\n"
    assert text.count(anchor) == 1
    mutant = text.replace(
        anchor,
        anchor + "    degree_of = cache.degrees.__getitem__\n"
        "    mean_deg = [sum(map(degree_of, pool)) / len(pool) for pool in pools]\n",
    )
    assert pool_sum_offenders({**sources, "cost/estimator.py": mutant}) == [
        "cost/estimator.py: reads cache.degrees.__getitem__"
    ]
    mutant = text.replace(anchor, anchor + "    first = cache.degrees[pools[0][0]]\n")
    assert pool_sum_offenders({**sources, "cost/estimator.py": mutant}) == [
        "cost/estimator.py: reads cache.degrees[pools[0][0]]"
    ]
    # ... a reader building a pool's set of its own ...
    text = sources["core/phase1.py"]
    anchor = "    return {u: plan.pool_set(u) & covered for u in range(q)}\n"
    assert text.count(anchor) == 1
    mutant = text.replace(anchor, "    return {u: frozenset(plan.pools[u]) & covered for u in range(q)}\n")
    line = mutant[: mutant.index("frozenset(plan.pools[u])")].count("\n") + 1
    assert pool_sum_offenders({**sources, "core/phase1.py": mutant}) == [
        f"core/phase1.py:{line}: builds frozenset(plan.pools[u])"
    ]
    # ... the plan building its own view again instead of taking the entry's ...
    text = sources["indexes/plans.py"]
    anchor = "        return entry.set_view() if view is None else view\n"
    assert text.count(anchor) == 1
    mutant = text.replace(
        anchor, "        return frozenset(self.pools[u]) if view is None else view\n"
    )
    line = mutant[: mutant.index("frozenset(self.pools[u])")].count("\n") + 1
    assert pool_sum_offenders({**sources, "indexes/plans.py": mutant}) == [
        f"indexes/plans.py:{line}: builds frozenset(self.pools[u])"
    ]
    # ... the entry building a second set of its members ...
    text = sources["indexes/graph_cache.py"]
    anchor = "        view = self.view = frozenset(self.members)\n"
    assert text.count(anchor) == 1
    mutant = text.replace(
        anchor, anchor + "        self.lists = {v: frozenset(self.members) for v in ()}\n"
    )
    assert pool_sum_offenders({**sources, "indexes/graph_cache.py": mutant}) == [
        "indexes/graph_cache.py: builds a pool's frozenset 2 times"
    ]
    # ... the probe pricing outside the read lock again ...
    text = sources["service/catalog.py"]
    start = text.index("        session = self.session(config)\n        self._rw.acquire_read()\n"
                       "        try:\n            return session.estimate(query)\n")
    end = text.index("    def observe_cost(")
    mutant = text[:start] + "        return self.session(config).estimate(query)\n\n" + text[end:]
    assert pool_sum_offenders({**sources, "service/catalog.py": mutant}) == [
        "service/catalog.py: estimate_cost is not a reader"
    ]
    # ... and the query's own signature deleted (the inherited one builds a cache).
    text = sources["graph/query_graph.py"]
    start, end = text.index("    def neighborhood_signature("), text.index("    @classmethod\n")
    assert pool_sum_offenders({**sources, "graph/query_graph.py": text[:start] + text[end:]}) == [
        "graph/query_graph.py: neighborhood_signature is not the query's own"
    ]


# ----------------------------------------------------------------------
# Fork guard: a connection starts no thread. ``service/server.py`` hands a
# connection to an executor's reused thread (the multi-worker control server,
# a handful of requests per process lifetime, keeps its ThreadingHTTPServer:
# the guard is scoped to this one module); nothing is computed for an access
# log that is not there; a declared body length is judged before it is read.
# ----------------------------------------------------------------------
def transport_offenders(text):
    """What in ``service/server.py`` would put a per-request thread, an
    unconditional ``_query_key`` or an unchecked body read back."""
    banned = ("ThreadingHTTPServer", "ThreadingMixIn")
    offenders = [f"names {name}" for name in banned if name in text]
    tree = ast.parse(text)
    functions = {
        n.name: n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    # Reachable by *mention* (a bare name or ``self.name``), not by call: the
    # worker is passed to ``submit``.
    reached, frontier = set(), ["process_request"]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in functions:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Thread"):
                offenders.append(f"{name} constructs a thread")
            if isinstance(node, ast.Name):
                frontier.append(node.id)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
                frontier.append(node.attr)
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.If, ast.IfExp)) and "access_log" in ast.unparse(node.test)
        for inner in ast.walk(node)
    }
    keyed = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "_query_key"
    ]
    if len(keyed) != 1 or id(keyed[0]) not in guarded:
        offenders.append("_query_key is not called once, under a test of access_log")
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
        offenders.append("_read_payload reads before comparing with MAX_BODY_BYTES")
    return offenders


def test_a_connection_starts_no_thread():
    # Its mutants are rows of GUARD_MUTANTS.
    assert not transport_offenders(package_sources()["service/server.py"])


# ----------------------------------------------------------------------
# Fork guard: a warm hit's price and bytes are kept, never patched. Only
# ``_WarmRecord`` writes a reply's pre-encoded bytes (``.encoded``) and only
# ``_send_json`` reads them, so no other step can send bytes that are not
# the body's; and ``EwmaCalibration.observe`` replaces its state instead of
# writing to it, so a price stamped with a state object stays that state's.
# ----------------------------------------------------------------------
def kept_price_offenders(sources):
    """``path: function writes|reads .encoded`` outside the two allowed
    places, and ``cost/calibration.py: observe assigns X`` for every
    attribute ``observe`` writes on anything but ``self``."""
    offenders = []
    for path, text in sorted(sources.items()):
        tree = ast.parse(text)
        owner = {}  # id(node) -> innermost enclosing class or function
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(scope):
                    owner.setdefault(id(node), []).append(scope.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "encoded"):
                continue
            scopes = owner.get(id(node), ["<module>"])
            if isinstance(node.ctx, ast.Store) and "_WarmRecord" not in scopes:
                offenders.append(f"{path}: {scopes[-1]} writes .encoded")
            elif isinstance(node.ctx, ast.Load) and "_send_json" not in scopes:
                offenders.append(f"{path}: {scopes[-1]} reads .encoded")
    calibration = ast.parse(sources["cost/calibration.py"])
    (observe,) = [
        node
        for cls in ast.walk(calibration)
        if isinstance(cls, ast.ClassDef) and cls.name == "EwmaCalibration"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "observe"
    ]
    for node in ast.walk(observe):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                offenders.append(f"cost/calibration.py: observe assigns {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func):
            offenders.append(f"cost/calibration.py: observe calls {ast.unparse(node.func)}")
    return offenders


def test_a_warm_hits_price_and_bytes_are_kept_not_patched():
    # Its mutants are rows of GUARD_MUTANTS.
    from repro.cost import CalibrationState

    assert kept_price_offenders(package_sources()) == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        CalibrationState().observations = 1


# ----------------------------------------------------------------------
# Every error the service raises has a row in docs/service.md's status
# table: the table is the wire contract, and a new code that skips it is
# an answer no client was told about.
# ----------------------------------------------------------------------
def service_status_rows():
    """``{(status, code)}`` of the table under docs/service.md's "Errors"."""
    text = (REPO / "docs" / "service.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Errors\n"):]
    section = section[: section.index("\n## ", 1)]
    return {
        (int(status), code)
        for status, codes in re.findall(r"^\| (\d{3}) \| ([^|]*) \|", section, re.M)
        for code in re.findall(r"`([a-z_]+)`", codes)
    }


def unlisted_service_errors(sources, rows):
    """``path:line: status code`` over ``{path: source}`` for every
    ``ServiceError(<int>, "<str>", ...)`` whose pair is not in ``rows``."""
    found = []
    for path, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "ServiceError"):
                continue
            status, code = (getattr(arg, "value", None) for arg in node.args[:2])
            if isinstance(status, int) and isinstance(code, str) and (status, code) not in rows:
                found.append(f"{path}:{node.lineno}: {status} {code}")
    return found


def test_every_service_error_has_a_status_row():
    sources = {p: t for p, t in package_sources().items() if p.startswith("service/")}
    rows = service_status_rows()
    assert {(431, "head_too_large"), (501, "unsupported_method"), (500, "internal")} <= rows
    assert unlisted_service_errors(sources, rows) == []
    # The scan sees a pasted raise of a code the table does not list.
    text = sources["service/server.py"]
    anchor = "            probe_request, handler = route\n"
    assert text.count(anchor) == 1
    pasted = '            raise ServiceError(418, "teapot", "short and stout")\n'
    line = text[: text.index(anchor)].count("\n") + 2
    mutant = {**sources, "service/server.py": text.replace(anchor, anchor + pasted)}
    assert unlisted_service_errors(mutant, rows) == [f"service/server.py:{line}: 418 teapot"]


# ----------------------------------------------------------------------
# The guards' mutants, one table: each row is an edit of a real module that
# its guard must see, and only that.
# ----------------------------------------------------------------------
GUARDS = {
    "transport": lambda sources: transport_offenders(sources["service/server.py"]),
    "memo_lock": lambda sources: memo_lock_offenders(sources)
    + fork_offenders(MEMO_WORKAROUND_MARKERS, sources=sources),
    "kept_price": kept_price_offenders,
}
GUARD_MUTANTS = {
    # id: (guard, module under src/repro, anchor, its replacement, what the guard reports)
    # The thread-per-connection base pasted back ...
    "threading_server": (
        "transport", "service/server.py",
        "class _ServiceHTTPServer(HTTPServer):", "class _ServiceHTTPServer(ThreadingHTTPServer):",
        ["names ThreadingHTTPServer"],
    ),
    "thread_per_connection": (
        "transport", "service/server.py",
        "        self._handlers.submit(self._serve_connection, request, client_address)\n",
        "        threading.Thread(target=self._serve_connection, args=(request,)).start()\n",
        ["process_request constructs a thread"],
    ),
    # ... the digest computed for nobody ...
    "query_key_for_nobody": (
        "transport", "service/server.py",
        "query_key=_query_key(request.query) if self.access_log is not None else None,",
        "query_key=_query_key(request.query),",
        ["_query_key is not called once, under a test of access_log"],
    ),
    # ... and the socket read moved above the declared-length check.
    "read_before_check": (
        "transport", "service/server.py",
        "        if length > MAX_BODY_BYTES:\n",
        "        early = self._recv(length)\n        if length > MAX_BODY_BYTES:\n",
        ["_read_payload reads before comparing with MAX_BODY_BYTES"],
    ),
    # The batch put back under an entry-held memo lock ...
    "batch_under_memo_lock": (
        "memo_lock", "service/catalog.py",
        "                return executor.run(list(queries)), executor.last_report\n",
        "                with self._memo_lock:\n"
        "                    results = executor.run(list(queries))\n"
        "                return results, executor.last_report\n",
        ["service/catalog.py: _memo_lock"],
    ),
    # ... the lock itself built on the entry ...
    "entry_batch_lock": (
        "memo_lock", "service/catalog.py",
        "        self._session_lock = threading.Lock()\n",
        "        self._session_lock = threading.Lock()\n"
        "        self._batch_lock = threading.Lock()\n",
        ["service/catalog.py: CatalogEntry._batch_lock"],
    ),
    # ... the executor walking the session's dict again ...
    "executor_reads_memo": (
        "memo_lock", "parallel/executor.py",
        "session._memo_lacks(by_key)",
        "[k for k in by_key if k not in session._query_cache]",
        ["parallel/executor.py: _query_cache"],
    ),
    # ... and the plan cache's spec table back.
    "plan_specs": (
        "memo_lock", "indexes/plans.py",
        FUTURE_IMPORT, FUTURE_IMPORT + "self._specs[key] = spec\n",
        ["indexes/plans.py: '._specs'"],
    ),
    # A miss given bytes of its own ...
    "bytes_written_outside_the_record": (
        "kept_price", "service/server.py",
        '        answer["estimated_cost"] = dict(wire)\n',
        '        answer["estimated_cost"] = dict(wire)\n'
        "        answer = _EncodedReply(answer)\n"
        "        answer.encoded = _SORTED_JSON.encode(answer).encode()\n",
        ["service/server.py: handle_query writes .encoded"],
    ),
    # ... a hit's bytes read before they are sent ...
    "bytes_read_outside_the_send": (
        "kept_price", "service/server.py",
        "            return record.body(answer, elapsed_ms)\n",
        "            body = record.body(answer, elapsed_ms)\n"
        '            logger.debug("%d reply bytes", len(body.encoded))\n'
        "            return body\n",
        ["service/server.py: handle_query reads .encoded"],
    ),
    # ... and a calibration state written in place under a kept price.
    "calibration_written_in_place": (
        "kept_price", "cost/calibration.py",
        "                self._state = CalibrationState(err, abs(err), 1)\n",
        "                state.observations += 1\n"
        "                self._state = CalibrationState(err, abs(err), 1)\n",
        ["cost/calibration.py: observe assigns state.observations"],
    ),
}


@pytest.mark.parametrize("row", sorted(GUARD_MUTANTS))
def test_a_guard_fails_on_its_mutant(row):
    guard, path, anchor, replacement, reported = GUARD_MUTANTS[row]
    sources = package_sources()
    assert GUARDS[guard](sources) == []
    assert sources[path].count(anchor) == 1, anchor
    mutant = {**sources, path: sources[path].replace(anchor, replacement)}
    assert GUARDS[guard](mutant) == reported


# ----------------------------------------------------------------------
# Fork guard: two observation channels in the engines. Every engine event is
# a metric or a span of the ``Instrumentation`` bundle (a registry and an
# optional tracer); the callback channel beside them — its base class, its
# four callbacks, the per-embedding dispatch and the bundle's third slot —
# must not grow back.
# ----------------------------------------------------------------------
def test_profiling_hooks_stay_deleted():
    from repro.observability import Instrumentation

    assert_stays_deleted("profiling_hooks")
    assert not (REPO / "src" / "repro" / "observability" / "hooks.py").exists()
    assert Instrumentation.__slots__ == ("metrics", "tracer")


def test_test_only_surface_stays_deleted():
    import repro

    assert_stays_deleted("test_only_surface")
    for module in ("graph/interop.py", "indexes/signature.py"):
        assert not (REPO / "src" / "repro" / module).exists(), module
    names = STAYS_DELETED["test_only_surface"][0]
    exported = {
        name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
        for name in importlib.import_module(info.name).__all__
    }
    assert not exported & set(names)


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
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    array = re.search(r'^dependencies\s*=\s*\[((?:\s*"[^"]*"\s*,?)*)\s*\]', text, re.M)
    assert array, "pyproject.toml has no [project] dependencies array of strings"
    return {
        normalized(re.split(r"[\s<>=!~;\[(]", dep, maxsplit=1)[0])
        for dep in re.findall(r'"([^"]*)"', array.group(1))
    }


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


def undeclared_imports(sources, declared_modules):
    """``path:line: module`` over ``{path: source}`` for every import, at
    module level or inside a function, of a top-level module that is neither
    stdlib, ``repro``, nor in ``declared_modules``."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | set(declared_modules)
    found = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path}:{node.lineno}: {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    return found


def test_src_imports_only_declared_packages():
    modules = installed_modules()[0]
    assert "numpy" in modules
    sources = package_sources()
    assert undeclared_imports(sources, modules) == []
    # The lint sees an undeclared import pasted into a function body.
    text = sources["core/dsql.py"] + "\n\ndef _plot():\n    import networkx as nx\n"
    line = len(text.splitlines())
    assert undeclared_imports({"core/dsql.py": text}, modules) == [f"core/dsql.py:{line}: networkx"]


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
# Catalog guard: docs/observability.md's metric tables and the code agree.
# Every name a table row gives is emitted by ``src/repro``, and every name
# ``src/repro`` emits has a row. A name is emitted where a registry's
# ``counter`` / ``gauge`` / ``histogram`` is called with it: a literal, the
# ``SearchStats`` flush table, or an f-string family spelled out from the
# values its placeholder takes.
# ----------------------------------------------------------------------
def metric_families():
    """``{source of a non-literal name argument: the names it takes}``."""
    from repro.coverage.objectives import OBJECTIVE_NAMES
    from repro.kernels import KERNEL_KINDS
    from repro.observability.metrics import _STATS_COUNTERS
    from repro.service.server import _outcome

    return {
        "f'{phase}.level_expansions'": {"phase1.level_expansions", "phase2.level_expansions"},
        "f'kernel.dispatch.{kind}'": {f"kernel.dispatch.{kind}" for kind in KERNEL_KINDS},
        "f'objective.{self.config.objective}.queries'": {
            f"objective.{name}.queries" for name in OBJECTIVE_NAMES
        },
        "f'objective.{self.config.objective}.swap_accept'": {
            f"objective.{name}.swap_accept" for name in OBJECTIVE_NAMES
        },
        "f'service.requests.{_outcome(status)}'": {
            f"service.requests.{_outcome(status)}" for status in (200, 400, 429, 500, 503)
        },
        "metric": {metric for _, metric in _STATS_COUNTERS},
        "name": set(),  # merge_counters replays names emitted elsewhere
    }


def emitted_names(sources, families, calls=("counter", "gauge", "histogram")):
    """``(names, unknown)`` over ``{path: source}``: every name the sources
    pass first to a method in ``calls`` (metric instruments by default), and
    ``path: argument`` for a name argument that is neither a literal nor a
    known family. ``self._metric("x")`` (the cost estimator's per-graph
    suffix) emits ``x``."""
    names, unknown = set(), []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in calls and node.args
            ):
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


def test_metric_catalog_matches_the_code():
    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    sources, families = package_sources(), metric_families()
    emitted, unknown = emitted_names(sources, families)
    documented = documented_names(doc)
    assert not unknown, unknown
    assert len(emitted) > 60
    assert sorted(documented - emitted) == [], "a row no code emits"
    assert sorted(emitted - documented) == [], "an emitted name with no row"
    # The guard sees a row deleted from the doc ...
    row = "| `service.mutations` |"
    assert doc.count(row) == 1
    cut = "\n".join(line for line in doc.splitlines() if not line.startswith(row))
    assert sorted(emitted - documented_names(cut)) == ["service.mutations"]
    # ... a literal name pasted into the code ...
    pasted = {**sources, "core/dsql.py": sources["core/dsql.py"] + "metrics.counter('x.y').inc()\n"}
    assert emitted_names(pasted, families)[0] - documented == {"x.y"}
    # ... and a name built some new way.
    pasted = {"core/dsql.py": "metrics.counter(f'cache.{kind}').inc()\n"}
    assert emitted_names(pasted, families)[1] == ["core/dsql.py: f'cache.{kind}'"]


# ----------------------------------------------------------------------
# Catalog guard: docs/observability.md's event-name table and the code
# agree. A span or point is emitted where ``span`` / ``point`` /
# ``emit_span`` is called with its name: a literal, or the per-phase level
# family. ``Instrumentation`` forwards its ``name`` argument to the tracer.
# ----------------------------------------------------------------------
EVENT_CALLS = ("span", "point", "emit_span")
EVENT_FAMILIES = {
    "f'{phase}.level'": {"phase1.level", "phase2.level"},
    "name": set(),  # Instrumentation.span / point forward their argument
}


def test_span_catalog_matches_the_code():
    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    sources = package_sources()
    emitted, unknown = emitted_names(sources, EVENT_FAMILIES, EVENT_CALLS)
    documented = documented_names(doc, "### Event names")
    assert not unknown, unknown
    assert len(emitted) >= 11
    assert sorted(documented - emitted) == [], "a row no code emits"
    assert sorted(emitted - documented) == [], "an emitted name with no row"
    # The guard sees a row deleted from the doc ...
    row = "| `memo.lookup` |"
    assert doc.count(row) == 1
    cut = "\n".join(line for line in doc.splitlines() if not line.startswith(row))
    assert sorted(emitted - documented_names(cut, "### Event names")) == ["memo.lookup"]
    # ... a literal name pasted into the code ...
    pasted = {**sources, "core/dsql.py": sources["core/dsql.py"] + "instr.span('x.y')\n"}
    assert emitted_names(pasted, EVENT_FAMILIES, EVENT_CALLS)[0] - documented == {"x.y"}
    # ... and a name built some new way.
    pasted = {"core/dsql.py": "instr.point(f'stage.{kind}')\n"}
    assert emitted_names(pasted, EVENT_FAMILIES, EVENT_CALLS)[1] == [
        "core/dsql.py: f'stage.{kind}'"
    ]


# ----------------------------------------------------------------------
# Fork guard: one join rule. Both engines join a matched neighbor on its
# neighbor set; the per-depth kernel table, the class pools, the bitset and
# class-bitset gates, the adjacency-mask memo and ``localized_search`` stay
# deleted.
# ----------------------------------------------------------------------
def test_kernel_gates_stay_deleted():
    from repro.core.config import DSQLConfig
    from repro.indexes.plans import QueryPlan

    assert_stays_deleted("kernel_gates")
    assert not {"kernels", "class_pools", "_cand_masks", "_class_masks"} & set(QueryPlan.__slots__)
    assert "localized_search" not in {f.name for f in dataclasses.fields(DSQLConfig)}


# ----------------------------------------------------------------------
# Fork guard: one join mechanism. Both engines join on neighbor sets; the
# twin-class partition and everything that built, repaired, read or
# counted it stay deleted. What harness 1.0 reads is a HARNESS_ONLY shim.
# ----------------------------------------------------------------------
def test_twin_compression_stays_deleted():
    import repro.isomorphism
    import repro.kernels
    from repro.core.config import DSQLConfig
    from repro.indexes.graph_cache import GraphIndexCache

    assert_stays_deleted("twin_compression")
    assert importlib.util.find_spec("repro.isomorphism.compression") is None
    assert "CompressedGraph" not in repro.isomorphism.__all__
    assert "joinable_kernel" not in repro.kernels.__all__
    assert not hasattr(GraphIndexCache, "compressed")
    assert "use_compression" not in {f.name for f in dataclasses.fields(DSQLConfig)}


# ----------------------------------------------------------------------
# Fork guard: a write is its delta. The graph's only record of one is the
# ``(epoch, delta_seq)`` version; the compaction counter, the checkpoint,
# the threshold's default and every spelling of it outside the shims
# harness 1.0 reads stay deleted.
# ----------------------------------------------------------------------
def test_compaction_stays_deleted():
    import repro.graph
    from repro.graph import LabeledGraph, MutationSummary
    from repro.service.client import ServiceClient

    assert_stays_deleted("compaction")
    assert not [n for n in ("compact", "delta_size") if hasattr(LabeledGraph, n)]
    assert "DEFAULT_COMPACTION_THRESHOLD" not in repro.graph.__all__
    assert MutationSummary._fields == ("applied", "version")
    assert "compaction_threshold" not in inspect.signature(ServiceClient.ingest).parameters


# ----------------------------------------------------------------------
# Harness-only names: perfbench's harness (``perfbench/harness/layers.py``,
# ``workloads.py`` and ``inputs.py``) imports, reads, passes or sends these,
# so they stay until it stops; nothing in ``src/`` may, outside the row's home. One row per name: how a use looks in
# the AST, and a mutant — a line pasted after an anchor in a real module —
# that the check must see.
# ----------------------------------------------------------------------
HARNESS_ONLY = {
    # row: (kind of use, names, home, module under src/repro, anchor, pasted after it)
    "QueryPlan.cand_mask": (
        "attribute", ("cand_mask",), (),
        "indexes/plans.py", "    u = plan.order[depth]\n", "    mask = plan.cand_mask(u)\n",
    ),
    "GraphIndexCache.adjacency_mask": (
        "attribute", ("adjacency_mask",), (),
        "core/search.py", "        self.stats.kernel_bitset += 1\n",
        "        masks = [self.graph.index_cache().adjacency_mask(v) for v in rcand]\n",
    ),
    "GraphIndexCache.adjacency_slice": (
        "attribute", ("adjacency_slice",), (),
        "isomorphism/qsearch.py", "        u = self.order[depth]\n",
        "        row = self.candidates.cache.adjacency_slice(u)\n",
    ),
    "bitset_and_members": (
        "name", ("bitset_and_members",), ("kernels/",),
        "indexes/plans.py", "from repro.kernels import bitset_of, intersect_sets\n",
        "from repro.kernels import bitset_and_members\n",
    ),
    "intersect_sorted/GALLOP_RATIO": (
        "name", ("intersect_sorted", "GALLOP_RATIO"), ("kernels/",),
        "isomorphism/qsearch.py", "from repro.kernels import KERNEL_KINDS, MERGE, SCAN\n",
        "from repro.kernels.join import GALLOP_RATIO\n",
    ),
    "get_or_compile(use_compression=)": (
        "keyword", ("get_or_compile(use_compression=)",), (),
        "core/dsql.py",
        "        return self.index_cache.plan_cache.get_or_compile(query, self.index_cache)\n",
        "        self.index_cache.plan_cache.get_or_compile(query, self.index_cache,"
        " use_compression=True)\n",
    ),
    # A class constant ``False``: no field, so no session can set it.
    "DSQLConfig.use_compression": (
        "attribute", ("config.use_compression",), (),
        "core/search.py", "        self._cap_singles = config.single_embedding_mode\n",
        "        self._twins = config.use_compression\n",
    ),
    # A class constant ``None``: no wire field carries it.
    "QueryRequest.use_compression": (
        "attribute", ("request.use_compression",), (),
        "service/server.py",
        '    """The entry\'s config under a query / batch request\'s overrides."""\n',
        "    assert request.use_compression is None\n",
    ),
    "request_config(use_compression=)": (
        "keyword", ("request_config(use_compression=)",), (),
        "service/server.py", "        objective=request.objective,\n",
        "        use_compression=False,\n",
    ),
    # The kind stays in KERNEL_KINDS and the counter in SearchStats, always 0.
    "cbitset/kernel_cbitset": (
        "name", ("CBITSET", "kernel_cbitset"), ("kernels/", "core/state.py"),
        "core/search.py", "        self.stats.kernel_bitset += 1\n",
        "        self.stats.kernel_cbitset += 1\n",
    ),
    # Accepted and ignored by ``LabeledGraph.mutate`` and ``CatalogEntry.mutate``.
    "mutate(compaction_threshold=)": (
        "keyword", ("mutate(compaction_threshold=)",), (),
        "service/server.py", "        summary = entry.mutate(request.ops)\n",
        "        summary = entry.mutate(request.ops, compaction_threshold=1)\n",
    ),
    # A class constant ``None``: no field, so no request carries one.
    "MutationRequest.compaction_threshold": (
        "attribute", ("request.compaction_threshold",), (),
        "service/server.py", "        entry, request = probe.entry, probe.request\n",
        "        threshold = request.compaction_threshold\n",
    ),
    # The ingest body's field: checked (an integer >= 1, or absent) and dropped.
    "ingest compaction_threshold": (
        "string", ("compaction_threshold",), ("service/schemas.py",),
        "service/server.py", "        entry, request = probe.entry, probe.request\n",
        '        threshold = payload.get("compaction_threshold")\n',
    ),
    # A class constant ``False``: no field, so no batch reports one.
    "MutationSummary.compacted": (
        "attribute", ("summary.compacted",), (),
        "service/schemas.py", '        "applied": summary.applied,\n',
        '        "compacted": summary.compacted,\n',
    ),
    # The response's key, always ``false``.
    "response compacted": (
        "string", ("compacted",), ("service/schemas.py",),
        "cli.py", "            body = client.ingest(args.graph, ops)\n",
        '            compacted = body.get("compacted")\n',
    ),
}


# How the harness reads a row whose names it never spells out: every kind,
# by ``KERNEL_KINDS`` and ``SearchStats.kernel_<kind>``.
HARNESS_READS = {"cbitset/kernel_cbitset": ("for kind in KERNEL_KINDS", 'f"kernel_{kind}"')}


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
        if (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
        ):
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


def harness_only_uses(sources):
    """``path:line: row`` over ``{path under src/repro: source}`` for every use
    of a :data:`HARNESS_ONLY` name outside its row's home."""
    found = []
    for path, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            for row, (kind, names, home, *_mutant) in HARNESS_ONLY.items():
                line = None if path.startswith(home) else harness_only_use(node, kind, names)
                if line is not None:
                    found.append(f"{path}:{line}: {row}")
    return found


def test_harness_only_names_have_no_caller_in_src():
    sources = package_sources()
    assert harness_only_uses(sources) == []
    harness = "".join(
        (REPO / "perfbench" / "harness" / f"{module}.py").read_text(encoding="utf-8")
        for module in ("layers", "workloads", "inputs")
    )
    for row, (kind, names, _home, path, anchor, pasted) in HARNESS_ONLY.items():
        # Still read there: the name, the callee and the keyword, or how the
        # harness spells the read.
        spellings = [name[:-2].split("(") if kind == "keyword" else [name] for name in names]
        spellings += [HARNESS_READS[row]] if row in HARNESS_READS else []
        assert any(all(part in harness for part in parts) for parts in spellings), row
        text = sources[path]
        assert text.count(anchor) == 1, (row, anchor)
        mutant = text.replace(anchor, anchor + pasted)
        line = mutant[: mutant.index(pasted)].count("\n") + 1
        assert harness_only_uses({path: mutant}) == [f"{path}:{line}: {row}"], row


# ----------------------------------------------------------------------
# Doc symbols: every dotted ``repro.…`` symbol in a backtick span of the
# README, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` resolves by import
# (a module, then attributes; a dataclass field counts). ``a.b/c`` names
# ``a.b`` and ``a.c``.
# ----------------------------------------------------------------------
DOC_SYMBOL = re.compile(r"(?<![\w./-])(repro(?:\.[A-Za-z_]\w*)+)((?:/[A-Za-z_]\w*)*)")


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
            elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
                obj = None
            else:
                return False
        return True
    return False


def doc_symbol_offenders(sources):
    """``path:line: symbol`` over ``{path: markdown}`` for every backticked
    ``repro.…`` symbol that does not resolve."""
    found = []
    for path, text in sources.items():
        for number, line in enumerate(text.splitlines(), 1):
            for span in re.findall(r"`([^`\n]+)`", line):
                for dotted, siblings in DOC_SYMBOL.findall(span):
                    parent = dotted.rsplit(".", 1)[0]
                    for symbol in [dotted] + [f"{parent}.{s}" for s in siblings.split("/")[1:]]:
                        if not resolves(symbol):
                            found.append(f"{path}:{number}: {symbol}")
    return found


def test_doc_symbols_resolve():
    docs = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    docs += sorted((REPO / "docs").glob("*.md"))
    sources = {str(p.relative_to(REPO)): p.read_text(encoding="utf-8") for p in docs}
    assert doc_symbol_offenders(sources) == []
    # The check reads dataclass fields and slash-joined siblings ...
    mapping = sources["docs/paper_mapping.md"]
    assert "`repro.queries.qflist.QFList.label_rm/neighbor_rm`" in mapping
    # ... and sees one symbol renamed.
    symbol = "repro.queries.qflist.resort_order"
    assert f"`{symbol}`" in mapping
    renamed = mapping.replace(f"`{symbol}`", f"`{symbol}s`", 1)
    line = mapping[: mapping.index(f"`{symbol}`")].count("\n") + 1
    assert doc_symbol_offenders({"docs/paper_mapping.md": renamed}) == [
        f"docs/paper_mapping.md:{line}: {symbol}s"
    ]
    assert doc_symbol_offenders({"x.md": "`repro.queries.qflist.QFList.label_rm/neighbour_rm`"}) == [
        "x.md:1: repro.queries.qflist.QFList.neighbour_rm"
    ]
