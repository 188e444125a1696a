"""Function census: every function defined in ``src/repro`` that neither
tier-1, the paper benches nor the perfbench smoke run ever enters.

Usage::

    python tests/tools/census.py

The runs happen in a copy of the working tree in a fresh temporary
directory, because the paper benches rewrite the tracked
``benchmarks/out/*.txt``. They are:

* ``tests`` — tier-1, ``python -m pytest`` with the repository's defaults;
* ``benches`` — ``pytest benchmarks/ --benchmark-only`` at
  ``REPRO_SCALE=0.25 REPRO_QUERIES=2``;
* ``perfbench`` — ``perfbench/run.py --smoke``.

How the record is taken: a ``sitecustomize`` module first on
``PYTHONPATH`` — which every interpreter imports at startup, so
subprocesses and spawned workers count — installs one hook with
``sys.setprofile`` and ``threading.setprofile`` that keeps every code
object entered. Each process writes the ``(file, co_qualname)`` pairs under
``src/repro`` to the record directory at exit: from ``atexit``, from
``os._exit``, which forked workers leave through, and before a SIGTERM with
the default action, which a pool's ``terminate`` sends. A pytest plugin re-arms
the hook around each test phase, because
``tests/conftest.py::profiled_calls`` resets ``sys.setprofile``.

A function is keyed by its path under ``src/repro`` and its qualified name
(``Class.method``, ``outer.<locals>.inner``); lambdas and comprehensions are
not counted (``co_qualname`` needs Python 3.11). pytest does not collect
this file: its name matches neither ``test_*.py`` nor ``bench_*.py``.

If any run exits non-zero, fewer functions were entered than a full run
enters: the census says it is partial and exits 1.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Set, Tuple

REPO = Path(__file__).resolve().parents[2]

HOOK = '''\
import atexit
import itertools
import json
import os
import signal
import sys
import threading

_SEEN = set()
_DUMPS = itertools.count()


def _hook(frame, event, arg):
    if event == "call":
        _SEEN.add(frame.f_code)


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def dump():
    src = os.environ["CENSUS_SRC"]
    entered = sorted(
        {(c.co_filename, c.co_qualname) for c in _SEEN.copy() if c.co_filename.startswith(src)}
    )
    path = os.path.join(os.environ["CENSUS_DIR"], f"{os.getpid()}-{next(_DUMPS)}")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(entered, fh)
    os.replace(path + ".tmp", path + ".json")  # a kill mid-dump leaves no half record


def _exit(code, _real=os._exit):
    try:
        dump()
    finally:
        _real(code)


def _on_term(signum, frame):
    dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _catch_term():
    """Dump before a default-action SIGTERM (a pool's terminate) kills us."""
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _on_term)
    except ValueError:  # not the main thread
        pass


if os.environ.get("CENSUS_DIR"):
    arm()
    atexit.register(dump)
    os._exit = _exit
    _catch_term()
    os.register_at_fork(after_in_child=_catch_term)
'''

PLUGIN = '''\
import pytest

import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    sitecustomize.arm()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sitecustomize.arm()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    sitecustomize.arm()
    yield
'''

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
RUNS = {
    "tests": (PYTEST + ["-p", "census_plugin"], {}),
    "benches": (
        PYTEST + ["benchmarks/", "--benchmark-only"],
        {"REPRO_SCALE": "0.25", "REPRO_QUERIES": "2"},
    ),
    "perfbench": ([sys.executable, "perfbench/run.py", "--smoke"], {}),
}


def defined_functions(package: Path) -> Iterator[Tuple[str, str, int, int]]:
    """``(path under package, qualname, first line, line count)`` of every
    ``def`` in the package, qualified as ``co_qualname`` spells it."""
    for path in sorted(package.rglob("*.py")):
        rel = str(path.relative_to(package))

        def walk(node, prefix: str) -> Iterator[Tuple[str, str, int, int]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    yield rel, qualname, child.lineno, child.end_lineno - child.lineno + 1
                    yield from walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


def entered_functions(records: Path, package: Path) -> Set[Tuple[str, str]]:
    """Union of every process's record, keyed ``(path under package, qualname)``."""
    entered = set()
    for path in records.glob("*.json"):
        for filename, qualname in json.loads(path.read_text(encoding="utf-8")):
            entered.add((str(Path(filename).relative_to(package)), qualname))
    return entered


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="census-")).resolve()
    tree, hook, records = work / "repo", work / "hook", work / "records"
    shutil.copytree(
        REPO, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
    )
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    (hook / "census_plugin.py").write_text(PLUGIN, encoding="utf-8")
    records.mkdir()
    package = tree / "src" / "repro"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hook), str(tree / "src")]),
        "CENSUS_DIR": str(records),
        "CENSUS_SRC": str(package) + os.sep,
    }
    failed = []
    for name, (command, extra) in RUNS.items():
        done = subprocess.run(command, cwd=tree, env={**env, **extra})
        print(f"census: {name} exited {done.returncode}", flush=True)
        if done.returncode != 0:
            failed.append(name)

    entered = entered_functions(records, package)
    defined = list(defined_functions(package))
    never = [f for f in defined if f[:2] not in entered]
    for rel, qualname, line, lines in never:
        print(f"{rel}:{line}  {qualname}  ({lines} lines)")
    print(
        f"census: {len(defined) - len(never)} of {len(defined)} functions entered; "
        f"{len(never)} never entered, holding {sum(f[3] for f in never)} lines"
    )
    if failed:
        print(f"census: PARTIAL, {', '.join(failed)} did not exit 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
