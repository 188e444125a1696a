"""Unit tests of the harness's process hygiene (``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import env  # noqa: E402

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")


def sleeper() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])


def test_child_pids_sees_a_running_child():
    child = sleeper()
    try:
        assert child.pid in env.child_pids()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in env.child_pids()


def test_stop_children_kills_and_reaps_what_does_not_end():
    child = sleeper()
    started = time.monotonic()
    env.stop_children(grace_s=0.2)
    assert time.monotonic() - started < 10
    assert env.child_pids() == []
    with pytest.raises(ProcessLookupError):  # killed and reaped, not merely signalled
        os.kill(child.pid, 0)


def test_stop_children_stops_the_resource_tracker():
    context = multiprocessing.get_context("spawn")
    worker = context.Process(target=time.sleep, args=(0.01,))
    worker.start()  # spawn starts multiprocessing's resource tracker beside the worker
    assert len(env.child_pids()) >= 2
    env.stop_children(grace_s=5.0)
    assert env.child_pids() == []
