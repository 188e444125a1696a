"""Kill set of the lint guards: every mutant of ``tests/test_lint.py``,
pasted into a scratch copy of a tree, fails the test that guards it.

Usage::

    python tests/tools/guard_kills.py [TREE]

The mutants are the rows of this checkout's ``STAYS_DELETED``,
``GUARD_MUTANTS`` and ``COUNT_MUTANTS`` (``tests/test_lint.py``) and
``HARNESS_ONLY`` (``tests/guard_tables.py``); a ``COUNT_MUTANTS`` row names
its own test, any other row a test of ``tests/test_lint.py``. TREE (default:
this checkout) is the tree they are pasted into, one at a time, in a copy
made in a fresh temporary directory; pointing it at another checkout (a parent commit, say)
runs the same (test, mutant) pairs against that checkout's tests. Each
guarding test must first pass on the unmutated copy. A row whose anchor the
tree lacks is reported ``absent``. One line per pair:
``killed|survived|absent  test  TABLE[row]``; exit status 1 unless every pair
was killed. pytest does not collect this file: its name matches neither
``test_*.py`` nor ``bench_*.py``.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[2]
HARNESS_TEST = "test_harness_only_names_have_no_caller_in_src"


def load_lint(root: Path):
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))  # the lint module imports tests.guard_tables
    spec = importlib.util.spec_from_file_location("lint_tables", root / "tests" / "test_lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stays_deleted_tests(root: Path) -> dict:
    """``{row: test}``: the test function that calls ``assert_stays_deleted(row)``."""
    tree = ast.parse((root / "tests" / "test_lint.py").read_text(encoding="utf-8"))
    return {
        call.args[0].value: test.name
        for test in tree.body if isinstance(test, ast.FunctionDef) and test.name.startswith("test_")
        for call in ast.walk(test)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "assert_stays_deleted"
    }


def mutants(root: Path):
    """``(test, label, file from the root, anchor, replacement)`` per table row."""
    lint, owners = load_lint(root), stays_deleted_tests(root)
    from tests.guard_tables import HARNESS_ONLY

    for row, (_names, path, anchor, pasted, _tripped, *_scope) in lint.STAYS_DELETED.items():
        yield owners[row], f"STAYS_DELETED[{row}]", f"src/repro/{path}", anchor, anchor + pasted
    for row, (_kind, _names, _home, path, anchor, pasted) in HARNESS_ONLY.items():
        yield HARNESS_TEST, f"HARNESS_ONLY[{row}]", f"src/repro/{path}", anchor, anchor + pasted
    for row, (guard, path, anchor, replacement, *_reported) in lint.GUARD_MUTANTS.items():
        yield lint.GUARDS[guard][0], f"GUARD_MUTANTS[{row}]", path, anchor, replacement
    for row, (test, path, anchor, replacement) in lint.COUNT_MUTANTS.items():
        yield test, f"COUNT_MUTANTS[{row}]", path, anchor, replacement


def fails(copy: Path, test: str) -> bool:
    """Whether ``test`` (a node id, or a test of ``tests/test_lint.py``) fails in ``copy``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        command + [test if "::" in test else f"tests/test_lint.py::{test}"],
        cwd=copy, env=env, capture_output=True,
    )
    return proc.returncode != 0


def main(argv) -> int:
    tree = Path(argv[1]).resolve() if len(argv) > 1 else HERE
    rows = list(mutants(HERE))
    with tempfile.TemporaryDirectory(prefix="guard-kills-") as scratch:
        copy = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
        shutil.copytree(tree, copy, ignore=ignore)
        broken = sorted(test for test in {row[0] for row in rows} if fails(copy, test))
        if broken:
            print("guards failing on the unmutated tree:", *broken, sep="\n  ")
            return 1
        outcomes = []
        for test, label, path, anchor, replacement in rows:
            target = copy / path
            text = target.read_text(encoding="utf-8")
            if text.count(anchor) != 1:
                outcome = "absent"
            else:
                target.write_text(text.replace(anchor, replacement), encoding="utf-8")
                try:
                    outcome = "killed" if fails(copy, test) else "survived"
                finally:
                    target.write_text(text, encoding="utf-8")
            outcomes.append(outcome)
            print(f"{outcome:8}  {test}  {label}", flush=True)
    print(", ".join(f"{outcomes.count(o)} {o}" for o in ("killed", "survived", "absent")))
    return 0 if set(outcomes) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
