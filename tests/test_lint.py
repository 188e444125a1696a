"""Lint gates: ruff over the source tree, the stdlib's ``ast`` in its place,
the docs gates, and the guards that keep deleted code deleted.

Every file is read, and every module parsed and walked, once a run (the
source index below). Every mutant a guard must see is a row of one of three
tables — ``STAYS_DELETED``, ``HARNESS_ONLY`` (in ``tests/guard_tables.py``)
or ``GUARD_MUTANTS`` — and a count pin's mutant is a row of
``COUNT_MUTANTS``; ``tests/tools/guard_kills.py`` pastes each row into a
scratch copy of the tree to show that its test fails there."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import functools
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
from typing import Dict, List, Tuple

import pytest

from tests.guard_tables import HARNESS_ONLY, service_status_rows

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
FUTURE_IMPORT = "from __future__ import annotations\n"


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


def nodes(text: str, *types) -> List[ast.AST]:
    """``text``'s nodes of the given types, in ``ast.walk`` order."""
    return [node for node in walked(text) if isinstance(node, types)]


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


def package_sources() -> Dict[str, str]:
    """``{path relative to src/repro: source}`` for every module of the package."""
    return package(texts("src/repro"))


LINTED_TREES = ("src", "tests", "benchmarks", "examples")
ROOT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def guard_sources() -> Dict[str, str]:
    """What the guards read, keyed by path from the root: every module of
    ``LINTED_TREES``, every doc under docs/ and the ``ROOT_DOCS``."""
    roots = {name: read(REPO / name) for name in ROOT_DOCS}
    return {**texts(*LINTED_TREES), **texts("docs", pattern="*.md"), **roots}


def line_of(text: str, needle: str) -> int:
    """The line of ``needle``'s first occurrence in ``text``."""
    return text[: text.index(needle)].count("\n") + 1


def homed(sites: List[str], home: str) -> List[str]:
    """Of ``path:...`` ``sites`` that must be one site in ``home``: the sites
    elsewhere, and ``home`` itself unless it holds exactly one."""
    at_home = [site for site in sites if site.startswith(home + ":")]
    stray = [site for site in sites if site not in at_home]
    return stray + ([] if len(at_home) == 1 else [f"{home}: {len(at_home)} sites"])


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
    # only reader. The scan's mutant is a row of GUARD_MUTANTS.
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
    offenders = []
    for path, text in sources.items():
        for node in nodes(text, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] != "repro":
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
    examples = texts("examples")
    assert examples and not import_offenders(examples)


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
def fork_offenders(markers, extra_paths=(), sources=None):
    """``path: marker`` for every marker found in shipped code and docs
    (README.md, src/, docs/, benchmarks/, examples/ and ``extra_paths``) —
    or, given ``sources`` (``{path: text}``), in exactly those texts."""
    if sources is None:
        sources = {"README.md": read(REPO / "README.md"), **texts("src", "benchmarks", "examples")}
        sources.update(texts("docs", pattern="*.md"))
        sources.update((str(path.relative_to(REPO)), read(path)) for path in extra_paths)
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


# ----------------------------------------------------------------------
# The ``*_stays_deleted`` guards share one shape: names that must appear
# nowhere in shipped code and docs (``fork_offenders``' trees, DESIGN.md,
# EXPERIMENTS.md and ``.claude/``; tests, ROADMAP.md and CHANGES.md may
# still tell the history), and a mutant — a line pasted back after an
# anchor in a real module — that the scan must see. One row per guard
# here; the comment block above each test says what the row protects, and
# the test keeps whatever it checks beyond names.
# ----------------------------------------------------------------------
STAYS_DELETED = {
    # id: (names, module under src/repro, anchor, pasted after it, names the paste
    #      must trip[, "module only": the names are banned from that module alone])
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
        "isomorphism/qsearch.py", "        self._carry: Optional[int] = None\n",
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
    # One declaration per wire field: the name tuples, the per-kind
    # optional checkers and the server's override shim stay deleted (the
    # FieldSpec tables hold all of it).
    "wire_field_lists": (
        (
            "_QUERY_FIELDS", "_BATCH_FIELDS", "_EDGE_FIELDS", "_INGEST_FIELDS", "_optional_int",
            "_optional_number", "_optional_objective", "_request_config",
        ),
        "service/schemas.py", '_GRAPH = FieldSpec("graph", "str", required=True)\n',
        "_QUERY_FIELDS = tuple(field.name for field in QUERY_SPEC)\n", ("_QUERY_FIELDS",),
    ),
    # One HTTP transport: the multi-worker control plane is a ServiceServer
    # over a QueryService, so its stdlib handler and threading server stay
    # deleted.
    "control_plane": (
        ("_ControlHandler", "_ControlHTTPServer", "BoundControlHandler"),
        "service/multiworker.py", "# Parent control server\n",
        "class _ControlHTTPServer(ThreadingHTTPServer):\n    daemon_threads = True\n",
        ("_ControlHTTPServer",),
    ),
    # The serve loop that accepted on one thread and handed each connection
    # to an executor's. Banned from its module alone: thread batches still
    # run on a ThreadPoolExecutor (parallel/executor.py), and
    # docs/performance.md tells the loop's history.
    "serve_loop": (
        ("ThreadPoolExecutor", "_handle_request_noblock", "process_request", "poll_interval"),
        "service/server.py", "import urllib.parse\n",
        "from concurrent.futures import ThreadPoolExecutor\n", ("ThreadPoolExecutor",),
        "module only",
    ),
}


def assert_stays_deleted(row: str) -> None:
    """The row's names are gone from every shipped file (or from its module,
    for a row marked so), and pasting its mutant back is seen."""
    names, path, anchor, pasted, tripped, *module_only = STAYS_DELETED[row]
    text = read(PACKAGE / path)
    if module_only:
        offenders = fork_offenders(names, sources={path: text})
    else:
        offenders = fork_offenders(names, design_and_skill_files())
    assert not offenders, offenders
    assert text.count(anchor) == 1, (row, anchor)
    mutant = text.replace(anchor, anchor + pasted)
    assert fork_offenders(names, sources={path: mutant}) == [f"{path}: {n!r}" for n in tripped]


def test_wire_field_lists_stay_deleted():
    import repro.service.schemas as schemas
    import repro.service.server as server

    assert_stays_deleted("wire_field_lists")
    assert not hasattr(server, "_request_config")
    assert not [n for n in STAYS_DELETED["wire_field_lists"][0] if hasattr(schemas, n)]


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


def bench_timing_offenders(sources):
    return fork_offenders(BENCH_TIMING, sources=under(sources, "benchmarks/bench_"))


def test_bench_copies_stay_deleted():
    assert_stays_deleted("bench_copies")


def test_bench_scripts_time_nothing():
    # Its mutant is a row of GUARD_MUTANTS.
    assert bench_timing_offenders(texts("benchmarks")) == []


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
LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
CORE_HOMES = {
    "BudgetExceeded": "isomorphism/backtrack.py", "DeadlineExceeded": "isomorphism/backtrack.py",
    "probe loop": "isomorphism/joinable.py",
}


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
    census = {what: [] for what in CORE_HOMES}
    for path, text in sources.items():
        for node in nodes(text, ast.Raise):
            name = getattr(getattr(node.exc, "func", None), "id", None)
            if isinstance(node.exc, ast.Call) and name in census:
                census[name].append(f"{path}:{node.lineno}")
        for node in nodes(text, *LOOPS):
            if "query.neighbors(" in loop_iters(node) and any(
                getattr(n, "id", getattr(n, "attr", None)) == "has_edge"
                for n in ast.walk(node)
            ):
                census["probe loop"].append(f"{path}:{node.lineno}")
    return census


def core_offenders(sources):
    """``core_census`` sites of the package outside their one home (``CORE_HOMES``)."""
    census = core_census(package(sources))
    return [
        f"{site}: {what}" for what, home in CORE_HOMES.items() for site in homed(census[what], home)
    ]


def test_engine_fork_stays_deleted():
    assert_stays_deleted("engine_fork")
    assert not (PACKAGE / "isomorphism" / "optimized.py").exists()
    sources = package_sources()
    engines = re.findall(r"^class (\w*SearchEngine)\b", "\n".join(sources.values()), re.M)
    assert sorted(engines) == ["LevelSearchEngine", "QSearchEngine"]
    # Its mutant is a row of GUARD_MUTANTS.
    assert core_offenders(guard_sources()) == []


# ----------------------------------------------------------------------
# Fork guard: a frame's prologue lives in the frame. The per-frame helper
# calls (candidate hop, closure-building join test) must not grow back, the
# level engine builds no function and probes no edge itself, and the budget
# errors and the conflict rule keep their one home in ``backtrack.py``.
# ----------------------------------------------------------------------
def frame_offenders(sources):
    """What ``core/search.py`` must not contain — a ``lambda``, a ``def``
    nested in a function, or the name ``has_edge`` — and ``core_offenders``."""
    text, found = sources["src/repro/core/search.py"], []
    for node in nodes(text, ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef):
        if isinstance(node, ast.Lambda):
            found.append(f"lambda:{node.lineno}")
        else:
            found += [
                f"nested def {inner.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    if "has_edge" in text:
        found.append("has_edge")
    return found + core_offenders(sources)


def test_frame_prologue_stays_folded():
    from repro.core.config import DSQLConfig

    sources = package_sources()
    assert_stays_deleted("frame_prologue")
    # One raise site per budget error (``core_offenders``) and one conflict
    # rule, all in backtrack.py. Its mutants are rows of GUARD_MUTANTS.
    assert not frame_offenders(guard_sources())
    backtrack = "isomorphism/backtrack.py"
    for rule in ("def _conflict_set", "def _child_failed"):
        assert [path for path, text in sources.items() if rule in text] == [backtrack], rule
        assert sources[backtrack].count(rule) == 1
    assert len(dataclasses.fields(DSQLConfig)) == 18


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
        for node in nodes(text, ast.For, ast.While):
            header = node.iter if isinstance(node, ast.For) else node.test
            walked_names = {n.id for n in ast.walk(header) if isinstance(n, ast.Name)}
            if any(
                isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "append"
                and ast.unparse(call.func.value) in walked_names and len(call.args) == 1
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
    # Its mutant is a row of GUARD_MUTANTS.


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
    return [
        f"{path}:{node.lineno}"
        for path, text in sources.items()
        for node in nodes(text, *LOOPS)
        if "graph.neighbors(" in loop_iters(node) and any(
            isinstance(n, (ast.In, ast.NotIn)) or getattr(n, "attr", None) == "is_candidate"
            for n in ast.walk(node)
        )
    ]


def localization_sources(sources):
    """The package modules the localization guard reads: core/, baselines/, indexes/."""
    trees = ("core/", "baselines/", "indexes/")
    return {path: text for path, text in package(sources).items() if path.startswith(trees)}


def test_localization_stays_in_one_place():
    from repro.core.config import DSQLConfig

    sources = localization_sources(texts("src/repro"))
    assert len(sources) > 15 and "indexes/graph_cache.py" in sources
    # Its mutants are rows of GUARD_MUTANTS.
    assert not row_walk_sites(sources)
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


def numpy_importers(sources, *prefixes: str):
    """Modules of the package under any of ``prefixes`` that import numpy."""
    return sorted(
        path for path, text in package(sources).items()
        if path.startswith(prefixes) and re.search(r"^\s*(import|from) numpy\b", text, re.M)
    )


def test_shared_memory_transport_stays_deleted():
    from repro.graph import LabeledGraph
    from repro.parallel import WorkerPool

    # The pass sees the transport pasted back into the pool, and the array
    # base pasted back into the graph's constructor (its numpy import is a
    # row of GUARD_MUTANTS).
    assert_stays_deleted("shared_transport")
    assert_stays_deleted("array_base")
    assert not (PACKAGE / "graph" / "shared.py").exists()
    assert numpy_importers(guard_sources(), "graph/") == []
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
CONSTRUCTOR = ["indexes/graph_cache.py:__init__"]
STAMPED_IN_THE_CONSTRUCTOR = {
    "epoch =": CONSTRUCTOR, "next(_EPOCHS)": CONSTRUCTOR,
    "delta_seq = 0": [], "plan_cache.clear(": [],
}


@cached
def restamp_sites(text) -> Tuple[Tuple[str, str], ...]:
    """``(what, function)`` for every site of ``restamp_census`` in ``text``."""
    sites = []
    for function in nodes(text, ast.FunctionDef, ast.AsyncFunctionDef):
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                call = ast.unparse(node)
                if call == "next(_EPOCHS)":
                    sites.append(("next(_EPOCHS)", function.name))
                elif call.endswith("plan_cache.clear()"):
                    sites.append(("plan_cache.clear(", function.name))
                continue
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (t for tgt in targets for t in ast.walk(tgt)):
                attr = getattr(target, "attr", None)
                if attr == "epoch":
                    sites.append(("epoch =", function.name))
                elif attr == "delta_seq" and ast.unparse(node.value) == "0":
                    sites.append(("delta_seq = 0", function.name))
    return tuple(sites)


def restamp_census(sources):
    """``{what: [path:function, ...]}`` over ``{path: source}``: every
    assignment to an ``.epoch`` attribute, every ``next(_EPOCHS)``, every
    ``.delta_seq`` assigned the constant 0, every ``plan_cache.clear()``."""
    census = {what: [] for what in STAMPED_IN_THE_CONSTRUCTOR}
    for path, text in sources.items():
        for what, function in restamp_sites(text):
            census[what].append(f"{path}:{function}")
    return census


def restamp_offenders(sources):
    """``what: [sites]`` for each census row of the package off its one home."""
    census = restamp_census(sources)
    return [
        f"{what}: {census[what]}"
        for what, home in STAMPED_IN_THE_CONSTRUCTOR.items() if census[what] != home
    ]


def test_epoch_is_stamped_once():
    from repro.core.config import DSQLConfig
    from repro.indexes.graph_cache import GraphIndexCache

    # Its mutant is a row of GUARD_MUTANTS.
    assert restamp_census(package_sources()) == STAMPED_IN_THE_CONSTRUCTOR
    assert not hasattr(GraphIndexCache, "on_compaction")
    assert_stays_deleted("restamp")
    assert len(dataclasses.fields(DSQLConfig)) == 18


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


def class_named(text, name):
    (cls,) = [n for n in nodes(text, ast.ClassDef) if n.name == name]
    return cls


def slot_census(text, cls_name, table):
    """``(slots, declared)`` of class ``cls_name`` in ``text``: the string
    names written in its ``__slots__`` and the first field of each row of
    its ``table``."""
    found = {}
    for node in class_named(text, cls_name).body:
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
                f"{path}:{n.lineno}: reads {ast.unparse(n)}" for n in nodes(text, ast.Attribute)
                if n.attr == "delta_seq" and isinstance(n.ctx, ast.Load)
            ]
    return offenders


def test_every_derived_slot_is_declared():
    import threading

    from repro.indexes.graph_cache import GraphIndexCache
    from repro.indexes.plans import PlanCache, QueryPlan

    sources = package_sources()
    # Its mutants are rows of GUARD_MUTANTS.
    assert not census_offenders(sources)
    for cls in (GraphIndexCache, QueryPlan, PlanCache):
        declared = [row[0] for row in getattr(cls, DERIVED_TABLES[cls.__name__][1])]
        assert sorted(cls.__slots__) == sorted(PICKLED_SLOTS[cls.__name__] + tuple(declared))
    assert set(DERIVED_CHECKS) == {slot for slot, _, _ in GraphIndexCache._DERIVED}
    for path, check in DERIVED_CHECKS.values():
        assert check in read(REPO / path), (path, check)
    locks = [slot for slot, empty, _ in GraphIndexCache._DERIVED if empty is threading.Lock]
    assert locks == ["_lock"] and "Lock()" not in sources["indexes/graph_cache.py"]
    assert_stays_deleted("adj_lock")


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

    # The guard sees the graph-global ceiling pasted back beside the new one
    # (and, as a row of GUARD_MUTANTS, numpy imported for it).
    assert_stays_deleted("global_weight_table")
    sources = guard_sources()
    assert numpy_importers(sources, "indexes/") == numpy_importers(sources, "cost/") == []
    assert len(dataclasses.fields(DSQLConfig)) == 18


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
    for cls in nodes(text, ast.ClassDef):
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
    """Over the package: modules other than ``core/dsql.py`` naming the memo
    or its lock, locks the catalog builds outside ``_ReadWriteLock`` and
    ``_session_lock``, and the workaround markers."""
    sources = package(sources)
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
    return found + fork_offenders(MEMO_WORKAROUND_MARKERS, sources=sources)


def test_memo_lock_lives_on_the_memo():
    from repro.core.config import DSQLConfig
    from repro.service.catalog import CatalogEntry, GraphCatalog

    sources = package_sources()
    offenders = fork_offenders(MEMO_WORKAROUND_MARKERS, design_and_skill_files())
    assert not offenders, offenders
    assert not memo_lock_offenders(guard_sources())
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
    return [n for n in nodes(text, ast.FunctionDef) if n.name == name]


def attribute_calls(node) -> set:
    """The attribute names called anywhere under ``node`` (``x.f()`` -> ``f``)."""
    return {
        n.func.attr for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


POOL_VIEW_HOMES = ("indexes/graph_cache.py",)
POOL_VIEW_READERS = ("core/", "isomorphism/", "indexes/candidates.py", "indexes/plans.py")


def pool_view_builds(text):
    """The ``frozenset(...)`` calls over a pool (an argument naming one or its members)."""
    return [
        n for n in nodes(text, ast.Call)
        if isinstance(n.func, ast.Name) and n.func.id == "frozenset"
        and n.args and any(word in ast.unparse(n.args[0]) for word in ("pool", "members"))
    ]


def pool_sum_offenders(sources):
    """``path: what`` over ``{path: source}``: a ``degrees[...]`` /
    ``degrees.__getitem__`` read under ``cost/``; a pool's ``frozenset``
    built other than once in each of ``POOL_VIEW_HOMES`` (``path:line:`` for
    one built by a reader); ``estimate_cost`` in the catalog not bracketed by
    ``acquire_read`` / ``release_read``; ``QueryGraph.neighborhood_signature``
    missing or calling ``index_cache``."""
    sources, offenders = package(sources), []
    for path in POOL_VIEW_HOMES:
        built = len(pool_view_builds(sources[path]))
        if built != 1:
            offenders.append(f"{path}: builds a pool's frozenset {built} times")
    for path, text in sources.items():
        if path.startswith(POOL_VIEW_READERS):
            offenders += [
                f"{path}:{n.lineno}: builds {ast.unparse(n)}" for n in pool_view_builds(text)
            ]
        if path.startswith("cost/"):
            offenders += [
                f"{path}: reads {ast.unparse(node)}"
                for node in nodes(text, ast.Subscript, ast.Attribute)
                if (isinstance(node, ast.Subscript) or node.attr == "__getitem__")
                and ast.unparse(node.value).endswith("degrees")
            ]
    probes = functions_named(sources["service/catalog.py"], "estimate_cost")
    if len(probes) != 1 or not {"acquire_read", "release_read"} <= attribute_calls(probes[0]):
        offenders.append("service/catalog.py: estimate_cost is not a reader")
    own = functions_named(sources["graph/query_graph.py"], "neighborhood_signature")
    if len(own) != 1 or "index_cache" in attribute_calls(own[0]):
        offenders.append("graph/query_graph.py: neighborhood_signature is not the query's own")
    return offenders


def test_a_pool_is_summed_where_it_lives():
    from repro.core.config import DSQLConfig

    # Its mutants are rows of GUARD_MUTANTS.
    assert not pool_sum_offenders(guard_sources())
    assert len(dataclasses.fields(DSQLConfig)) == 18
    assert_stays_deleted("pool_view")
    assert_stays_deleted("pool_degree_mass")


# ----------------------------------------------------------------------
# Fork guard: a connection starts no thread. In ``service/server.py`` a
# reused handler thread accepts a connection and answers it, and so does
# the multi-worker control plane, which is a ``ServiceServer`` too (its
# stdlib handler and threading server stay deleted, as does the serve loop
# that handed connections to an executor); nothing is computed for an
# access log that is not there; a declared body length is judged before it
# is read.
# ----------------------------------------------------------------------
TRANSPORT_ROOT = "_accept_loop"


def transport_offenders(sources):
    """What in ``service/server.py`` would put a per-request thread, an
    unconditional ``_query_key`` or an unchecked body read back."""
    text = sources["src/repro/service/server.py"]
    banned = ("ThreadingHTTPServer", "ThreadingMixIn")
    offenders = [f"names {name}" for name in banned if name in text]
    functions = {n.name: n for n in nodes(text, ast.FunctionDef, ast.AsyncFunctionDef)}
    if TRANSPORT_ROOT not in functions:
        offenders.append(f"no {TRANSPORT_ROOT} to walk from")
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
                offenders.append(f"{name} constructs a thread")
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
    assert not transport_offenders(guard_sources())
    assert_stays_deleted("control_plane")
    assert_stays_deleted("serve_loop")


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
    sources, offenders = package(sources), []
    for path, text in sorted(sources.items()):
        if "encoded" not in text:  # no such attribute, so nothing to place
            continue
        owner = {}  # id(node) -> innermost enclosing class or function
        for scope in nodes(text, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef):
            for node in ast.walk(scope):
                owner.setdefault(id(node), []).append(scope.name)
        for node in nodes(text, ast.Attribute):
            if node.attr != "encoded":
                continue
            scopes = owner.get(id(node), ["<module>"])
            if isinstance(node.ctx, ast.Store) and "_WarmRecord" not in scopes:
                offenders.append(f"{path}: {scopes[-1]} writes .encoded")
            elif isinstance(node.ctx, ast.Load) and "_send_json" not in scopes:
                offenders.append(f"{path}: {scopes[-1]} reads .encoded")
    calibration = sources["cost/calibration.py"]
    (observe,) = [n for n in class_named(calibration, "EwmaCalibration").body
                  if isinstance(n, ast.FunctionDef) and n.name == "observe"]
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

    assert kept_price_offenders(guard_sources()) == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        CalibrationState().observations = 1


# ----------------------------------------------------------------------
# Every error the service raises has a row in docs/service.md's status
# table: the table is the wire contract, and a new code that skips it is
# an answer no client was told about.
# ----------------------------------------------------------------------
def unlisted_service_errors(sources, rows):
    """``path:line: status code`` over ``{path: source}`` for every
    ``ServiceError(<int>, "<str>", ...)`` whose pair is not in ``rows``."""
    found = []
    for path, text in sorted(sources.items()):
        for node in nodes(text, ast.Call):
            if ast.unparse(node.func) != "ServiceError":
                continue
            status, code = (getattr(arg, "value", None) for arg in node.args[:2])
            if isinstance(status, int) and isinstance(code, str) and (status, code) not in rows:
                found.append(f"{path}:{node.lineno}: {status} {code}")
    return found


def status_row_offenders(sources):
    rows = service_status_rows(sources["docs/service.md"])
    return unlisted_service_errors(under(package(sources), "service/"), rows)


def test_every_service_error_has_a_status_row():
    rows = service_status_rows()
    assert {(431, "head_too_large"), (501, "unsupported_method"), (500, "internal")} <= rows
    # Its mutant is a row of GUARD_MUTANTS.
    assert status_row_offenders(guard_sources()) == []


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
    if field.default is not None:
        cell += f", default `{field.default}`"
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
STORAGE_WRITERS = ("__init__", "_append_vertex", "_write_edge")


def collector_offenders(sources):
    """``graph/labeled_graph.py: W builds a set`` for each storage writer
    that does, and ``path: .intersection( over neighbor_set`` for each such
    call in the package."""
    sources, offenders = package(sources), []
    for node in nodes(sources["graph/labeled_graph.py"], ast.FunctionDef):
        if node.name in STORAGE_WRITERS and any(
            isinstance(sub, (ast.Set, ast.SetComp))
            or isinstance(sub, ast.Call) and ast.unparse(sub.func) in ("set", "frozenset")
            for sub in ast.walk(node)
        ):
            offenders.append(f"graph/labeled_graph.py: {node.name} builds a set")
    for path, text in sorted(sources.items()):
        offenders += [
            f"{path}: .intersection( over neighbor_set" for node in nodes(text, ast.Call)
            if isinstance(node.func, ast.Attribute) and node.func.attr == "intersection"
            and any("neighbor_set" in ast.unparse(arg) for arg in node.args)
        ]
    return offenders


def test_the_graph_stays_out_of_the_collector():
    # Its mutants are rows of GUARD_MUTANTS; tests/graph/test_collector.py
    # checks the same at run time.
    assert collector_offenders(guard_sources()) == []


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
    assert not (PACKAGE / "observability" / "hooks.py").exists()
    assert Instrumentation.__slots__ == ("metrics", "tracer")


def test_test_only_surface_stays_deleted():
    import repro

    assert_stays_deleted("test_only_surface")
    for module in ("graph/interop.py", "indexes/signature.py"):
        assert not (PACKAGE / module).exists(), module
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


def undeclared_imports(sources):
    """``path:line: module`` over the package for every import, at module
    level or inside a function, of a top-level module that is neither
    stdlib, ``repro``, nor provided by a declared distribution."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | installed_modules()[0]
    found = []
    for path, text in package(sources).items():
        for node in nodes(text, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue
            imported = isinstance(node, ast.Import)
            modules = [alias.name for alias in node.names] if imported else [node.module]
            found += [
                f"{path}:{node.lineno}: {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    return found


def test_src_imports_only_declared_packages():
    modules = installed_modules()[0]
    assert "numpy" in modules
    # Its mutant is a row of GUARD_MUTANTS.
    assert undeclared_imports(guard_sources()) == []


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


def metric_offenders(sources):
    return catalog_offenders(sources, "## Metric catalog", metric_families(), METRIC_CALLS)


def span_offenders(sources):
    return catalog_offenders(sources, "### Event names", EVENT_FAMILIES, EVENT_CALLS)


def test_metric_catalog_matches_the_code():
    # Its mutants are rows of GUARD_MUTANTS.
    assert len(emitted_names(package_sources(), metric_families())[0]) > 60
    assert metric_offenders(guard_sources()) == []


def test_span_catalog_matches_the_code():
    # Its mutants are rows of GUARD_MUTANTS.
    assert len(emitted_names(package_sources(), EVENT_FAMILIES, EVENT_CALLS)[0]) >= 11
    assert span_offenders(guard_sources()) == []


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
        for row, (kind, names, home, *_mutant) in HARNESS_ONLY.items():
            if not path.startswith(home):
                uses = nodes(text, *HARNESS_USE_NODES[kind])
                lines = [harness_only_use(node, kind, names) for node in uses]
                found += [f"{path}:{line}: {row}" for line in lines if line is not None]
    return found


def test_harness_only_names_have_no_caller_in_src():
    sources = package_sources()
    assert harness_only_uses(sources) == []
    harness = "".join(
        read(REPO / "perfbench" / "harness" / f"{module}.py")
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
        line = line_of(mutant, pasted)
        assert harness_only_uses({path: mutant}) == [f"{path}:{line}: {row}"], row


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
            elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
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
    sources = guard_sources()  # README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md
    assert doc_symbol_offenders(sources) == []
    # The check reads dataclass fields and slash-joined siblings. Its
    # mutant is a row of GUARD_MUTANTS.
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
def lint_importers(sources):
    """``path:line: module`` over ``{path: source}`` for every import of
    ``test_lint`` by a module under ``tests/``."""
    found = []
    for path, text in sorted(under(sources, "tests/").items()):
        for node in nodes(text, ast.Import, ast.ImportFrom):
            base = getattr(node, "module", None) or ""
            names = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
            found += [f"{path}:{node.lineno}: {n}" for n in names if n.endswith("test_lint")][:1]
    return found


def test_no_test_imports_the_lint_module():
    # Its mutant is a row of GUARD_MUTANTS.
    assert lint_importers(guard_sources()) == []


# ----------------------------------------------------------------------
# The guards' mutants, one table: each row is an edit of a real file that
# its guard must see, and only that. A guard reads ``guard_sources()`` — every
# linted module and every doc, keyed by its path from the repository root —
# and names the test that runs it on the real tree; ``{line}`` in a report is
# the line of the row's needle in the mutant (by default the first line the
# replacement adds).
# ----------------------------------------------------------------------
GUARDS = {
    # guard: (the test that runs it on the real tree, its check)
    "imports": ("test_no_unused_imports", lambda s: per_file(s, unused_imports)),
    "names": ("test_no_undefined_names", lambda s: per_file(s, undefined_names)),
    "examples": ("test_example_imports_resolve", lambda s: import_offenders(under(s, "examples/"))),
    "bench_timing": ("test_bench_scripts_time_nothing", bench_timing_offenders),
    "engines": ("test_engine_fork_stays_deleted", core_offenders),
    "frame": ("test_frame_prologue_stays_folded", frame_offenders),
    "resort": (
        "test_resort_walks_in_one_place",
        lambda s: homed(father_walk_sites(package(s)), "queries/qflist.py"),
    ),
    "localization": (
        "test_localization_stays_in_one_place", lambda s: row_walk_sites(localization_sources(s)),
    ),
    "graph_numpy": (
        "test_shared_memory_transport_stays_deleted", lambda s: numpy_importers(s, "graph/"),
    ),
    "weights_numpy": (
        "test_global_weight_table_stays_deleted", lambda s: numpy_importers(s, "indexes/", "cost/"),
    ),
    "restamp": ("test_epoch_is_stamped_once", lambda s: restamp_offenders(package(s))),
    "derived": ("test_every_derived_slot_is_declared", lambda s: census_offenders(package(s))),
    "memo_lock": ("test_memo_lock_lives_on_the_memo", memo_lock_offenders),
    "pool_sum": ("test_a_pool_is_summed_where_it_lives", pool_sum_offenders),
    "transport": ("test_a_connection_starts_no_thread", transport_offenders),
    "kept_price": ("test_a_warm_hits_price_and_bytes_are_kept_not_patched", kept_price_offenders),
    "status_rows": ("test_every_service_error_has_a_status_row", status_row_offenders),
    "wire_fields": ("test_wire_fields_are_declared_once", wire_field_offenders),
    "collector": ("test_the_graph_stays_out_of_the_collector", collector_offenders),
    "declared": ("test_src_imports_only_declared_packages", undeclared_imports),
    "metrics": ("test_metric_catalog_matches_the_code", metric_offenders),
    "spans": ("test_span_catalog_matches_the_code", span_offenders),
    "doc_symbols": ("test_doc_symbols_resolve", doc_symbol_offenders),
    "lint_imports": ("test_no_test_imports_the_lint_module", lint_importers),
}
DSQL_END = "    return DSQL(graph, config=config).query(query)\n"
GUARD_MUTANTS = {
    # id: (guard, file, anchor, its replacement, what the guard reports[, needle])
    # An import pasted into a real module and read nowhere ...
    "unused_import": (
        "imports", "src/repro/core/phase2.py",
        FUTURE_IMPORT, FUTURE_IMPORT + "from itertools import chain\n",
        ["src/repro/core/phase2.py:{line}: chain"],
    ),
    # ... and one deleted where an annotation is the name's only reader.
    "import_read_by_an_annotation": (
        "names", "tests/service/test_cost_admission.py", "from typing import Optional\n", "",
        ["tests/service/test_cost_admission.py:{line}: Optional"], "def _service(config: Optional[",
    ),
    # A deleted name imported again by an example.
    "stale_example_import": (
        "examples", "examples/engine_comparison.py",
        "from repro.isomorphism import QSearchEngine\n",
        "from repro.isomorphism import QSearchEngine, count_embeddings_compressed\n",
        ["examples/engine_comparison.py: repro.isomorphism.count_embeddings_compressed"],
    ),
    # A paper bench timing itself again.
    "bench_timing": (
        "bench_timing", "benchmarks/bench_table2_embedding_counts.py",
        "    for name in DATASETS:\n",
        "    start = time.perf_counter()\n    for name in DATASETS:\n",
        ["benchmarks/bench_table2_embedding_counts.py: 'perf_counter'"],
    ),
    # A private budget check pasted back into a baseline.
    "budget_check_in_a_baseline": (
        "engines", "src/repro/baselines/com.py", "\n\ndef region_embeddings(\n",
        "\n\ndef charge(spent, limit):\n    if spent > limit:\n        raise BudgetExceeded('x')\n"
        "\n\ndef region_embeddings(\n",
        ["baselines/com.py:{line}: BudgetExceeded"], "raise BudgetExceeded('x')",
    ),
    # A closure pasted back into a frame ...
    "closure_in_a_frame": (
        "frame", "src/repro/core/search.py",
        "            rcand = sorted(self._tcand[u])\n        joined = None\n",
        "            rcand = sorted(self._tcand[u])\n        joined = None\n"
        "        joinable = lambda v: v not in used\n",
        ["lambda:{line}"],
    ),
    # ... a nested join test that probes edges ...
    "nested_def_in_a_frame": (
        "frame", "src/repro/core/search.py", "        tried_valid = 0\n",
        "        tried_valid = 0\n\n        def joinable(v):\n"
        "            return self.graph.has_edge(v, 0)\n\n",
        ["nested def joinable:{line}", "has_edge"],
    ),
    # ... and a second raise site beside the in-place charge.
    "second_raise_in_a_frame": (
        "frame", "src/repro/core/search.py",
        "                meter.check()\n            if v in bad:\n",
        "                raise BudgetExceeded('node budget exhausted')\n            if v in bad:\n",
        ["core/search.py:{line}: BudgetExceeded"],
    ),
    # The walk the frame table used to run through ``resort``, in the plan module.
    "second_father_walk": (
        "resort", "src/repro/indexes/plans.py",
        "            order = resort_order(self.qlist, *basis, qovp)\n",
        "            order = resort_order(self.qlist, *basis, qovp)\n"
        "            entries = [QFEntry(order[0][0], NO_FATHER)]\n"
        "            placed, cursor = {order[0][0]}, 0\n"
        "            while len(entries) < query.size:\n"
        "                u = entries[cursor].node\n"
        "                for w in sorted(set(query.neighbors(u)) - placed):\n"
        "                    entries.append(QFEntry(w, u))\n"
        "                    placed.add(w)\n"
        "                cursor += 1\n",
        ["indexes/plans.py:{line}"], "while len(entries)",
    ),
    # Both lines the localization guard replaced, pasted back: the engine's ...
    "engine_walks_a_row": (
        "localization", "src/repro/core/search.py", "        tried_valid = 0\n",
        "        tried_valid = 0\n"
        "        base = [w for w in self.graph.neighbors(self._assignment[father]) if w in pool]\n",
        ["core/search.py:{line}"],
    ),
    # ... and the baseline's; and the miss regrown as a row walk.
    "baseline_walks_a_row": (
        "localization", "src/repro/baselines/com.py",
        "        for v in candidates.localized(u, assignment[entry.father]):\n"
        "            charge()\n",
        "        for v in graph.neighbors(assignment[entry.father]):\n"
        "            if not candidates.is_candidate(u, v):\n                continue\n"
        "            charge()\n",
        ["baselines/com.py:{line}"],
    ),
    "miss_walks_the_row": (
        "localization", "src/repro/indexes/candidates.py",
        "filter(self._pool_set(u).__contains__, self.graph.neighbors(fv))",
        "w for w in self.graph.neighbors(fv) if w in self._pool_set(u)",
        ["indexes/candidates.py:{line}"],
    ),
    # numpy imported for the array base (``STAYS_DELETED["array_base"]``'s
    # paste) and for a graph-global weight table.
    "array_base_imports_numpy": (
        "graph_numpy", "src/repro/graph/labeled_graph.py", "        self._sets = sets\n",
        "        self._sets = sets\nimport numpy as np\n"
        "        self.indices = np.empty(0, dtype=np.int32)\n",
        ["graph/labeled_graph.py"],
    ),
    "estimator_imports_numpy": (
        "weights_numpy", "src/repro/cost/estimator.py",
        "import math\n", "import math\nimport numpy as np\n", ["cost/estimator.py"],
    ),
    # The re-stamp pasted into a batched write.
    "restamp_in_a_write": (
        "restamp", "src/repro/graph/labeled_graph.py",
        "            self._cache.apply_delta(applied)\n",
        "            self._cache.apply_delta(applied)\n"
        "            self._cache.epoch = next(_EPOCHS)\n"
        "            self._cache.delta_seq = 0\n            self._cache.plan_cache.clear()\n",
        [
            "epoch =: ['graph/labeled_graph.py:mutate', 'indexes/graph_cache.py:__init__']",
            "next(_EPOCHS): ['graph/labeled_graph.py:mutate', 'indexes/graph_cache.py:__init__']",
            "delta_seq = 0: ['graph/labeled_graph.py:mutate']",
            "plan_cache.clear(: ['graph/labeled_graph.py:mutate']",
        ],
    ),
    # A memo slot pasted into the cache with no row ...
    "undeclared_slot": (
        "derived", "src/repro/indexes/graph_cache.py",
        '        "pool_entries_dropped",\n',
        '        "pool_entries_dropped",\n        "_plan_lists",\n',
        ["GraphIndexCache._plan_lists: undeclared"],
    ),
    # ... and a plan store that checks the version itself again.
    "plan_store_reads_delta_seq": (
        "derived", "src/repro/indexes/plans.py",
        "    def _keep(self, key, plan: QueryPlan) -> None:\n",
        "    def _keep(self, key, plan: QueryPlan) -> None:\n"
        "        assert cache.delta_seq == seq\n",
        ["indexes/plans.py:{line}: reads cache.delta_seq"],
    ),
    # The batch put back under an entry-held memo lock ...
    "batch_under_memo_lock": (
        "memo_lock", "src/repro/service/catalog.py",
        "                return executor.run(list(queries)), executor.last_report\n",
        "                with self._memo_lock:\n"
        "                    results = executor.run(list(queries))\n"
        "                return results, executor.last_report\n",
        ["service/catalog.py: _memo_lock"],
    ),
    # ... the lock itself built on the entry ...
    "entry_batch_lock": (
        "memo_lock", "src/repro/service/catalog.py",
        "        self._session_lock = threading.Lock()\n",
        "        self._session_lock = threading.Lock()\n"
        "        self._batch_lock = threading.Lock()\n",
        ["service/catalog.py: CatalogEntry._batch_lock"],
    ),
    # ... the executor walking the session's dict again ...
    "executor_reads_memo": (
        "memo_lock", "src/repro/parallel/executor.py",
        "session._memo_lacks(by_key)",
        "[k for k in by_key if k not in session._query_cache]",
        ["parallel/executor.py: _query_cache"],
    ),
    # ... and the plan cache's spec table back.
    "plan_specs": (
        "memo_lock", "src/repro/indexes/plans.py",
        FUTURE_IMPORT, FUTURE_IMPORT + "self._specs[key] = spec\n",
        ["indexes/plans.py: '._specs'"],
    ),
    # The pool walk pasted back into the estimator, as a bound reader ...
    "estimator_walks_a_pool": (
        "pool_sum", "src/repro/cost/estimator.py", "    mass_of = cache.degree_mass\n",
        "    mass_of = cache.degree_mass\n    degree_of = cache.degrees.__getitem__\n"
        "    mean_deg = [sum(map(degree_of, pool)) / len(pool) for pool in pools]\n",
        ["cost/estimator.py: reads cache.degrees.__getitem__"],
    ),
    # ... or as an index ...
    "estimator_indexes_a_degree": (
        "pool_sum", "src/repro/cost/estimator.py", "    mass_of = cache.degree_mass\n",
        "    mass_of = cache.degree_mass\n    first = cache.degrees[pools[0][0]]\n",
        ["cost/estimator.py: reads cache.degrees[pools[0][0]]"],
    ),
    # ... a reader building a pool's set of its own ...
    "reader_builds_a_pool_set": (
        "pool_sum", "src/repro/core/phase1.py",
        "    return {u: plan.pool_set(u) & covered for u in range(q)}\n",
        "    return {u: frozenset(plan.pools[u]) & covered for u in range(q)}\n",
        ["core/phase1.py:{line}: builds frozenset(plan.pools[u])"],
    ),
    # ... the plan building its own view again instead of taking the entry's ...
    "plan_builds_its_own_view": (
        "pool_sum", "src/repro/indexes/plans.py",
        "        return entry.set_view() if view is None else view\n",
        "        return frozenset(self.pools[u]) if view is None else view\n",
        ["indexes/plans.py:{line}: builds frozenset(self.pools[u])"],
    ),
    # ... the entry building a second set of its members ...
    "entry_builds_a_second_set": (
        "pool_sum", "src/repro/indexes/graph_cache.py",
        "        view = self.view = frozenset(self.members)\n",
        "        view = self.view = frozenset(self.members)\n"
        "        self.lists = {v: frozenset(self.members) for v in ()}\n",
        ["indexes/graph_cache.py: builds a pool's frozenset 2 times"],
    ),
    # ... the probe pricing outside the read lock again ...
    "probe_outside_the_read_lock": (
        "pool_sum", "src/repro/service/catalog.py",
        "        session = self.session(config)\n        self._rw.acquire_read()\n"
        "        try:\n            return session.estimate(query)\n"
        "        finally:\n            self._rw.release_read()\n",
        "        return self.session(config).estimate(query)\n",
        ["service/catalog.py: estimate_cost is not a reader"],
    ),
    # ... and the query's own signature gone (the inherited one builds a cache).
    "query_signature_inherited": (
        "pool_sum", "src/repro/graph/query_graph.py",
        "    def neighborhood_signature(", "    def labels_around(",
        ["graph/query_graph.py: neighborhood_signature is not the query's own"],
    ),
    # The thread-per-connection server pasted back ...
    "threading_server": (
        "transport", "src/repro/service/server.py",
        "        self._listener = socket.create_server(\n",
        "        self._listener = ThreadingHTTPServer(\n",
        ["names ThreadingHTTPServer"],
    ),
    # ... an accepted connection answered on a thread of its own ...
    "thread_per_connection": (
        "transport", "src/repro/service/server.py",
        "                self._handler(request, client_address)\n",
        "                threading.Thread(target=self._handler, args=(request, client_address))"
        ".start()\n",
        [f"{TRANSPORT_ROOT} constructs a thread"],
    ),
    # ... a thread started on every accept, idle ones or not ...
    "growth_beside_idle_threads": (
        "transport", "src/repro/service/server.py",
        "                elif not self._idle and len(self._threads) < _MAX_HANDLER_THREADS:\n",
        "                elif len(self._threads) < _MAX_HANDLER_THREADS:\n",
        ["_add_thread constructs a thread"],
    ),
    # ... the accept loop renamed, which would leave the walk nothing to check ...
    "transport_root_renamed": (
        "transport", "src/repro/service/server.py",
        "    def _accept_loop(self) -> None:\n", "    def _serve_connections(self) -> None:\n",
        [f"no {TRANSPORT_ROOT} to walk from"],
    ),
    # ... the digest computed for nobody ...
    "query_key_for_nobody": (
        "transport", "src/repro/service/server.py",
        "query_key=_query_key(request.query) if self.access_log is not None else None,",
        "query_key=_query_key(request.query),",
        ["_query_key is not called once, under a test of access_log"],
    ),
    # ... and the socket read moved above the declared-length check.
    "read_before_check": (
        "transport", "src/repro/service/server.py",
        "        if length > MAX_BODY_BYTES:\n",
        "        early = self._recv(length)\n        if length > MAX_BODY_BYTES:\n",
        ["_read_payload reads before comparing with MAX_BODY_BYTES"],
    ),
    # A miss given bytes of its own ...
    "bytes_written_outside_the_record": (
        "kept_price", "src/repro/service/server.py",
        '        answer["estimated_cost"] = dict(wire)\n',
        '        answer["estimated_cost"] = dict(wire)\n'
        "        answer = _EncodedReply(answer)\n"
        "        answer.encoded = _SORTED_JSON.encode(answer).encode()\n",
        ["service/server.py: handle_query writes .encoded"],
    ),
    # ... a hit's bytes read before they are sent ...
    "bytes_read_outside_the_send": (
        "kept_price", "src/repro/service/server.py",
        "            return record.hit(answer, elapsed_ms)\n",
        "            body = record.hit(answer, elapsed_ms)\n"
        '            logger.debug("%d reply bytes", len(body.encoded))\n'
        "            return body\n",
        ["service/server.py: handle_query reads .encoded"],
    ),
    # ... and a calibration state written in place under a kept price.
    "calibration_written_in_place": (
        "kept_price", "src/repro/cost/calibration.py",
        "                self._state = CalibrationState(err, abs(err), 1)\n",
        "                state.observations += 1\n"
        "                self._state = CalibrationState(err, abs(err), 1)\n",
        ["cost/calibration.py: observe assigns state.observations"],
    ),
    # A raise of a code docs/service.md's status table does not list.
    "unlisted_error": (
        "status_rows", "src/repro/service/server.py",
        "            probe_request, handler = route\n",
        "            probe_request, handler = route\n"
        '            raise ServiceError(418, "teapot", "short and stout")\n',
        ["service/server.py:{line}: 418 teapot"],
    ),
    # A field added in one place only: a row no doc, client or request has ...
    "field_in_the_table_only": (
        "wire_fields", "src/repro/service/schemas.py",
        '    FieldSpec("jobs", "int", bound=1),\n',
        '    FieldSpec("jobs", "int", bound=1),\n    FieldSpec("seed", "int", bound=0),\n',
        [
            "POST /v1/batch: 'seed' has no docs/service.md row",
            "ServiceClient.batch does not take 'seed'",
            "BatchRequest has no field 'seed'",
        ],
    ),
    # ... a client keyword no row sends ...
    "field_in_the_client_only": (
        "wire_fields", "src/repro/service/client.py",
        "        jobs: Optional[int] = None,\n",
        "        jobs: Optional[int] = None,\n        seed: Optional[int] = None,\n",
        ["ServiceClient.batch takes 'seed', sent by no row"],
    ),
    # ... and an override no row carries.
    "override_in_the_catalog_only": (
        "wire_fields", "src/repro/service/catalog.py",
        "        time_budget_ms: Optional[float] = None,\n",
        "        time_budget_ms: Optional[float] = None,\n"
        "        node_budget: Optional[int] = None,\n",
        ["CatalogEntry.request_config takes 'node_budget', overridden by no row"],
    ),
    # A set per vertex put back where a vertex is appended ...
    "membership_set": (
        "collector", "src/repro/graph/labeled_graph.py",
        "        self._sets.append({})\n", "        self._sets.append(set())\n",
        ["graph/labeled_graph.py: _append_vertex builds a set"],
    ),
    # ... and the fold that walks every neighbor view whole.
    "intersection_over_views": (
        "collector", "src/repro/core/search.py",
        "        joined = set(rcand)\n"
        "        for w in backward:\n"
        "            joined = neighbor_set(assignment[w]) & joined\n"
        "        return joined\n",
        "        return set(rcand).intersection("
        "*map(neighbor_set, map(assignment.__getitem__, backward)))\n",
        ["core/search.py: .intersection( over neighbor_set"],
    ),
    # An undeclared import pasted into a function body.
    "undeclared_import": (
        "declared", "src/repro/core/dsql.py", DSQL_END,
        DSQL_END + "\n\ndef _plot():\n    import networkx as nx\n",
        ["core/dsql.py:{line}: networkx"], "import networkx",
    ),
    # A metric row deleted from the doc, a literal name pasted into the
    # code, and a name built some new way ...
    "metric_row_deleted": (
        "metrics", "docs/observability.md",
        "| `service.mutations` | writes applied through `/v1/graphs/{g}/edges` and "
        "`/v1/graphs/{g}/ingest` |\n", "",
        ["an emitted name with no row: service.mutations"],
    ),
    "metric_pasted": (
        "metrics", "src/repro/core/dsql.py", DSQL_END, DSQL_END + "metrics.counter('x.y').inc()\n",
        ["an emitted name with no row: x.y"],
    ),
    "metric_built_some_new_way": (
        "metrics", "src/repro/core/dsql.py",
        DSQL_END, DSQL_END + "metrics.counter(f'cache.{kind}').inc()\n",
        ["core/dsql.py: f'cache.{kind}'"],
    ),
    # ... and the same three for the event names.
    "span_row_deleted": (
        "spans", "docs/observability.md",
        "| `memo.lookup` | point | `DSQL._memo_answer` (result memo on) | `hit` |\n", "",
        ["an emitted name with no row: memo.lookup"],
    ),
    "span_pasted": (
        "spans", "src/repro/core/dsql.py", DSQL_END, DSQL_END + "instr.span('x.y')\n",
        ["an emitted name with no row: x.y"],
    ),
    "span_built_some_new_way": (
        "spans", "src/repro/core/dsql.py", DSQL_END, DSQL_END + "instr.point(f'stage.{kind}')\n",
        ["core/dsql.py: f'stage.{kind}'"],
    ),
    # A test taking a shared table from the lint module again.
    "test_imports_the_lint_module": (
        "lint_imports", "tests/kernels/test_join_kernels.py",
        "    from tests.guard_tables import HARNESS_ONLY\n",
        "    from tests.test_lint import HARNESS_ONLY\n",
        ["tests/kernels/test_join_kernels.py:{line}: tests.test_lint"],
    ),
    # A symbol renamed in the docs and not in the code.
    "renamed_doc_symbol": (
        "doc_symbols", "docs/paper_mapping.md",
        "`repro.queries.qflist.resort_order`", "`repro.queries.qflist.resort_orders`",
        ["docs/paper_mapping.md:{line}: repro.queries.qflist.resort_orders"],
    ),
}


@pytest.mark.parametrize("row", sorted(GUARD_MUTANTS))
def test_a_guard_fails_on_its_mutant(row):
    guard, path, anchor, replacement, reported, *needle = GUARD_MUTANTS[row]
    test, check = GUARDS[guard]
    assert callable(globals().get(test)), test
    sources = guard_sources()
    assert check(sources) == []
    assert sources[path].count(anchor) == 1, anchor
    mutant = sources[path].replace(anchor, replacement)
    added = [line for line in replacement.splitlines() if line.strip() not in anchor]
    line = str(line_of(mutant, (needle or added)[0])) if "{line}" in str(reported) else ""
    assert check({**sources, path: mutant}) == [r.replace("{line}", line) for r in reported]


# ----------------------------------------------------------------------
# Count pins' mutants: an edit of a real module that keeps every answer and
# moves a count that a runtime test pins — or drops a lock that a runtime
# test holds open a window under. No lint can see one, so this table holds
# each anchor to its module here, and ``tests/tools/guard_kills.py`` pastes
# each row into a copy of the tree and runs the row's test there.
# ----------------------------------------------------------------------
SINGLE_FRAME_PROLOGUE = (
    "        u, father, is_overlap, cap, backward = self._frames[depth]\n"
    "        self._bad[depth + 1].clear()\n"
    "        assignment, used = self._assignment, self._used\n"
    "        stats, meter = self.stats, self._meter\n"
    "        matched = self.matched\n"
    "        bad = self._bad[depth]\n"
)
COUNT_MUTANTS = {
    # id: (test, file, anchor, its replacement)
    # CT(u, beta) probing every node again, whatever its label ...
    "conflict_probes_every_label": (
        "tests/core/test_frame_costs.py::"
        "test_a_query_of_distinct_labels_probes_no_pool_for_a_conflict",
        "src/repro/isomorphism/backtrack.py",
        "            tuple(w for w in range(q) if w != u and labels[w] == labels[u])"
        " for u in range(q)\n",
        "            tuple(w for w in range(q) if w != u) for u in range(q)\n",
    ),
    # ... and a single-embedding frame entered at depth q to say "complete".
    "frame_entered_at_depth_q": (
        "tests/core/test_frame_costs.py::test_no_single_frame_is_entered_at_depth_q",
        "src/repro/core/search.py",
        SINGLE_FRAME_PROLOGUE + "        last = depth + 1 == self._q\n",
        "        if depth == self._q:\n            return None\n"
        + SINGLE_FRAME_PROLOGUE + "        last = False\n",
    ),
    # A cover snapshot taken again for level 0, which no overlap node reads.
    "level_zero_snapshot": (
        "tests/core/test_frame_costs.py::test_a_level_zero_search_asks_no_pool_for_a_snapshot",
        "src/repro/core/phase1.py",
        "    return tcand_snapshot(plan, covered, q) if level else {}\n",
        "    return tcand_snapshot(plan, covered, q)\n",
    ),
    # A drain that never wakes the threads asleep in accept().
    "drain_wakes_nobody": (
        "tests/service/test_server.py::test_a_drain_wakes_the_acceptors_and_answers_the_backlog",
        "src/repro/service/server.py",
        "            while self._idle:\n",
        "            while False:\n",
    ),
    # A dropped lock: a retire walking the warm table while ``_keep``
    # inserts into it.
    "warm_retire_unlocked": (
        "tests/service/test_warm_record.py::test_a_retire_walks_the_table_under_the_lock",
        "src/repro/service/server.py",
        "        with self._warm_lock:\n"
        "            self._warm = {\n"
        "                text: record\n"
        "                for text, record in self._warm.items()\n"
        "                if record.version == record.entry.index_cache.version\n"
        "            }\n",
        "        self._warm = {\n"
        "            text: record\n"
        "            for text, record in self._warm.items()\n"
        "            if record.version == record.entry.index_cache.version\n"
        "        }\n",
    ),
}


@pytest.mark.parametrize("row", sorted(COUNT_MUTANTS))
def test_a_count_pin_has_its_mutant(row):
    test, path, anchor, replacement = COUNT_MUTANTS[row]
    module, name = test.split("::")
    assert f"\ndef {name}(" in read(REPO / module)
    assert read(REPO / path).count(anchor) == 1, anchor
    assert replacement != anchor
