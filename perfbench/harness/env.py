"""Environment capture: what a reader needs to judge whether two runs compare."""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from . import HARNESS_VERSION

ROOT = Path(__file__).resolve().parents[2]
"""The checkout root (the directory holding ``BENCHMARK.json``)."""


_ALL_CORES: Optional[Set[int]] = None
"""The cores this process was allowed before :func:`pin_to_one_core` (``None``: not pinned)."""


def nproc() -> int:
    """Cores the benchmark may use (the allowance before any pinning)."""
    if _ALL_CORES is not None:
        return len(_ALL_CORES)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def pin_to_one_core() -> Optional[int]:
    """Pin the calling thread — and every thread and process it starts — to one core.

    A closed loop has one thing runnable at a time (the ``service_point``
    server answers its two clients one after the other under the GIL), so a
    second core adds no throughput, only migrations: unpinned, the same runs
    spread three times as wide and the calibration kernel, timed on whichever
    core the scheduler picked, read a different core than the one that did the
    work. Returns the core, or ``None`` where affinity cannot be set.
    """
    global _ALL_CORES
    try:
        cores = os.sched_getaffinity(0)
        core = max(cores)  # core 0 takes most of the interrupts
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    _ALL_CORES = set(cores)
    return core


@contextlib.contextmanager
def all_cores() -> Iterator[None]:
    """Undo :func:`pin_to_one_core` for a block that measures parallel execution."""
    if _ALL_CORES is None:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _ALL_CORES)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def load_1min() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def peak_rss_mib() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def capture() -> Dict[str, object]:
    """Static facts of this run; the caller adds ``load_1min_after`` at the end.

    ``commit`` and ``dirty`` are ``None`` outside a git checkout (the
    pipeline runs the benchmark from an exported tree).
    """
    status = _git("status", "--porcelain")
    return {
        "harness_version": HARNESS_VERSION,
        "nproc": nproc(),
        "pinned": _ALL_CORES is not None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "load_1min_before": load_1min(),
    }


# ----------------------------------------------------------------------
# Leaving no process behind
# ----------------------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent exits.

    With that, :func:`stop_children` sees (and can wait for) every process
    the run started, not only the ones it started directly. Linux only;
    elsewhere orphans go to init as usual.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """Processes whose parent is this one (zombies included), from ``/proc``."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="ascii", errors="replace")
        except OSError:  # gone in the meantime
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Called on every path out of a run. In order: join ``multiprocessing``
    workers; stop ``multiprocessing``'s resource tracker, which otherwise
    only notices that its parent is gone *after* the parent has exited and
    so outlives the run by a few milliseconds; then wait ``grace_s`` for
    whatever is left, kill what stays, and reap it.
    """
    for worker in multiprocessing.active_children():
        worker.join(grace_s)
        if worker.is_alive():
            worker.kill()
            worker.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the tracker's pipe and waits for it
        except (OSError, RuntimeError, TypeError):  # not ours to stop (inherited, already gone)
            pass
    deadline = time.monotonic() + grace_s
    pending = child_pids()
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere
                done = pid
            if done:
                pending.remove(pid)
        if not pending:
            pending = child_pids()  # orphans adopted since the last look
            continue
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            pending = child_pids()
            continue
        time.sleep(0.01)
