"""Lint gates: ruff over the source tree, plus a docs-snippet compile check."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
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


def test_sources_compile():
    """Cheap always-on stand-in for the lint gate: every file byte-compiles."""
    files = [str(p) for p in (REPO / "src").rglob("*.py")]
    files += [str(p) for p in (REPO / "benchmarks").glob("*.py")]
    files += [str(p) for p in (REPO / "examples").glob("*.py")]
    proc = subprocess.run(
        [sys.executable, "-m", "py_compile", *files],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


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
    """The twin-compression PR's load-bearing modules stay under the
    compile gate."""
    modules = [
        REPO / "src" / "repro" / "isomorphism" / "compression.py",
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
    from repro.graph.interop import from_networkx
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
        from_networkx,
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
    assert sum(row[3] == "dropped" for row in rows) == 4
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
FRAME_FORK_MARKERS = ("_rcand", "_kernel_join_test")


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
    extra = design_and_skill_files()
    offenders = fork_offenders(FRAME_FORK_MARKERS, extra)
    assert not offenders, offenders
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
    assert len(dataclasses.fields(DSQLConfig)) == 20
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
# Fork guard: one implementation of Section 5.1. ``N(father's match) ∩
# candS(u)`` is ``CandidateIndex.localized`` — a C-level set intersection,
# memoized per query; no engine or baseline walks a neighbor row in the
# interpreter asking pool membership per element.
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
        for tree in ("core", "baselines")
        for p in (package / tree).rglob("*.py")
    }
    assert len(sources) > 10
    assert not row_walk_sites(sources)
    # The pass sees both lines this guard replaced, pasted back.
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
    # The sorted-list restriction nothing called stays deleted, and neither
    # memo (localized lists, frame table) grew a switch or a size.
    offenders = fork_offenders(("def restricted", ".restricted("))
    assert not offenders, offenders
    assert len(dataclasses.fields(DSQLConfig)) == 20


# ----------------------------------------------------------------------
# Fork guard: one way for a graph to reach a worker process — it is started
# with it (fork inherits, spawn pickles). The shared-memory transport, the
# CSR publication format it shipped and the array base before that must not
# grow back: the storage holds exactly the views the engine reads, nothing
# under ``graph/`` imports numpy, and no segment is created anywhere.
# ----------------------------------------------------------------------
STORAGE_SLOTS = sorted((
    "labels", "num_edges", "label_table", "label_to_id",
    "_rows", "_degrees", "_sets", "_label_ids", "_delta_edges", "_cache", "name",
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
    assert isinstance(inspect.getattr_static(LabeledGraph, "delta_size"), property)


# ----------------------------------------------------------------------
# Fork guard: one version that only counts. A checkpoint trims the mutation
# log and nothing else — the epoch is stamped where a cache is constructed,
# ``delta_seq`` is never reset, and no path in ``src/`` flushes the plans.
# ----------------------------------------------------------------------
RESTAMP_MARKERS = ("on_compaction", "_sync_epoch")


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
    extra = design_and_skill_files()
    offenders = fork_offenders(RESTAMP_MARKERS, extra)
    assert not offenders, offenders
    assert len(dataclasses.fields(DSQLConfig)) == 20
    # The census sees the re-stamp pasted back into the checkpoint.
    cache_text = sources["indexes/graph_cache.py"]
    anchor = "        self._mutation_log.clear()\n"
    assert cache_text.count(anchor) == 1
    mutant = cache_text.replace(
        anchor,
        anchor + "        self.epoch = next(_EPOCHS)\n        self.delta_seq = 0\n"
        "        self.plan_cache.clear()\n",
    )
    checkpoint = "indexes/graph_cache.py:truncate_log"
    assert restamp_census({"indexes/graph_cache.py": mutant}) == {
        "epoch =": constructor + [checkpoint], "next(_EPOCHS)": constructor + [checkpoint],
        "delta_seq = 0": [checkpoint], "plan_cache.clear(": [checkpoint],
    }


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
    assert len(dataclasses.fields(DSQLConfig)) == 20
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
    assert len(dataclasses.fields(DSQLConfig)) == 20
    # The guard sees the batch put back under an entry-held memo lock ...
    catalog_text = sources["service/catalog.py"]
    anchor = "                return executor.run(list(queries)), executor.last_report\n"
    assert catalog_text.count(anchor) == 1
    mutant = catalog_text.replace(
        anchor,
        "                with self._memo_lock:\n"
        "                    results = executor.run(list(queries))\n"
        "                return results, executor.last_report\n",
    )
    assert memo_lock_offenders({**sources, "service/catalog.py": mutant}) == [
        "service/catalog.py: _memo_lock"
    ]
    # ... the lock itself built on the entry, and the executor walking the
    # session's dict again.
    anchor = "        self._session_lock = threading.Lock()\n"
    assert catalog_text.count(anchor) == 1
    mutant = catalog_text.replace(anchor, anchor + "        self._batch_lock = threading.Lock()\n")
    assert memo_lock_offenders({**sources, "service/catalog.py": mutant}) == [
        "service/catalog.py: CatalogEntry._batch_lock"
    ]
    executor_text = sources["parallel/executor.py"]
    anchor = "session._memo_lacks(by_key)"
    assert executor_text.count(anchor) == 1
    mutant = executor_text.replace(anchor, "[k for k in by_key if k not in session._query_cache]")
    assert memo_lock_offenders({**sources, "parallel/executor.py": mutant}) == [
        "parallel/executor.py: _query_cache"
    ]
    assert fork_offenders(
        MEMO_WORKAROUND_MARKERS, sources={"indexes/plans.py": "self._specs[key] = spec\n"}
    ) == ["indexes/plans.py: '._specs'"]


# ----------------------------------------------------------------------
# Fork guard: a pool is summed where it lives. The degree mass of a candidate
# pool is the index cache's (kept beside the memo entry, repaired with it), so
# nothing under ``cost/`` reads the degree list; the cost probe is a reader of
# the graph it prices; a query says its own neighbourhood signature without
# building an index cache for its handful of nodes.
# ----------------------------------------------------------------------
def functions_named(text, name):
    return [
        n for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.FunctionDef) and n.name == name
    ]


def pool_sum_offenders(sources):
    """``path: what`` over ``{path: source}``: a ``degrees[...]`` /
    ``degrees.__getitem__`` read under ``cost/``; ``estimate_cost`` in the
    catalog not bracketed by ``acquire_read`` / ``release_read``;
    ``QueryGraph.neighborhood_signature`` missing or calling ``index_cache``."""
    offenders = []
    for path, text in sources.items():
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
    assert len(dataclasses.fields(DSQLConfig)) == 20
    # The guard sees the pool walk pasted back into the estimator ...
    text = sources["cost/estimator.py"]
    anchor = "    mass_of = cache.pool_degree_mass\n"
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
        if isinstance(n, ast.Call) and ast.unparse(n.func).endswith("rfile.read")
    ]
    if not checks or not reads or min(reads) < min(checks):
        offenders.append("_read_payload reads before comparing with MAX_BODY_BYTES")
    return offenders


def test_a_connection_starts_no_thread():
    text = package_sources()["service/server.py"]
    assert not transport_offenders(text)

    def mutated(old, new):
        assert text.count(old) == 1, old
        return transport_offenders(text.replace(old, new))

    # The guard sees the thread-per-connection base pasted back ...
    assert mutated(
        "class _ServiceHTTPServer(HTTPServer):", "class _ServiceHTTPServer(ThreadingHTTPServer):"
    ) == ["names ThreadingHTTPServer"]
    assert mutated(
        "        self._handlers.submit(self._serve_connection, request, client_address)\n",
        "        threading.Thread(target=self._serve_connection, args=(request,)).start()\n",
    ) == ["process_request constructs a thread"]
    # ... the digest computed for nobody ...
    assert mutated(
        "query_key=_query_key(request.query) if self.access_log is not None else None,",
        "query_key=_query_key(request.query),",
    ) == ["_query_key is not called once, under a test of access_log"]
    # ... and the read moved above the check.
    assert mutated(
        "        if length > MAX_BODY_BYTES:\n",
        "        raw = self.rfile.read(length)\n        if length > MAX_BODY_BYTES:\n",
    ) == ["_read_payload reads before comparing with MAX_BODY_BYTES"]
