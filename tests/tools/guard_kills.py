"""Kill set of the lint guards: every mutant row, pasted into a scratch copy
of a tree, fails the test that guards it.

Usage::

    python tests/tools/guard_kills.py [TREE]

The rows are this checkout's ``STAYS_DELETED``, ``HARNESS_ONLY``,
``GUARD_MUTANTS`` and ``COUNT_MUTANTS``, each ending in (test or guard, file
from the root, anchor, text pasted after it, expected report); a guard
stands for the test ``GUARDS`` names. TREE (default: this checkout; a parent
commit's, say) gets the pastes one at a time, in a copy made in a fresh
temporary directory, after its guarding tests pass unmutated in one pytest
run. One line per pair, ``killed|survived|absent  test  TABLE[row]``
(``absent``: the tree lacks the anchor); exit status 1 unless every pair was
killed. pytest does not collect this file (its name matches neither
``test_*.py`` nor ``bench_*.py``).
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[2]


def mutants(root: Path):
    """``(test node id, TABLE[row], file from the root, anchor, pasted)`` per row."""
    sys.path.insert(0, str(root))  # the lint module imports tests.guard_tables
    lint = importlib.import_module("tests.test_lint")
    tables = {
        "STAYS_DELETED": lint.STAYS_DELETED, "HARNESS_ONLY": lint.HARNESS_ONLY,
        "GUARD_MUTANTS": lint.GUARD_MUTANTS, "COUNT_MUTANTS": lint.COUNT_MUTANTS,
    }
    for table, rows in tables.items():
        for row, (*_, owner, path, anchor, pasted, _report) in rows.items():
            test = lint.GUARDS[owner][0] if owner in lint.GUARDS else owner
            test = test if "::" in test else f"tests/test_lint.py::{test}"
            yield test, f"{table}[{row}]", path, anchor, pasted


def failing(copy: Path, tests) -> set:
    """The node ids among ``tests`` that fail in ``copy``, from one pytest run
    (all of them if it fails without naming one)."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    named = {line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    return named or (set(tests) if proc.returncode else set())


def main(argv) -> int:
    tree = Path(argv[1]).resolve() if len(argv) > 1 else HERE
    rows = list(mutants(HERE))
    with tempfile.TemporaryDirectory(prefix="guard-kills-") as scratch:
        copy = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
        shutil.copytree(tree, copy, ignore=ignore)
        broken = failing(copy, sorted({row[0] for row in rows}))
        if broken:
            print("guards failing on the unmutated tree:", *sorted(broken), sep="\n  ")
            return 1
        outcomes = []
        for test, label, path, anchor, pasted in rows:
            target = copy / path
            text = target.read_text(encoding="utf-8")
            if text.count(anchor) != 1:
                outcome = "absent"
            else:
                target.write_text(text.replace(anchor, anchor + pasted), encoding="utf-8")
                try:
                    outcome = "killed" if failing(copy, [test]) else "survived"
                finally:
                    target.write_text(text, encoding="utf-8")
            outcomes.append(outcome)
            print(f"{outcome:8}  {test}  {label}", flush=True)
    print(", ".join(f"{outcomes.count(o)} {o}" for o in ("killed", "survived", "absent")))
    return 0 if set(outcomes) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
