"""Fixtures for the worker-pool tests."""

from __future__ import annotations

import multiprocessing

import pytest

import repro.parallel.pool as pool_mod

START_METHODS = ("fork", "spawn")
"""Both sides of the one platform choice the pool makes (``_pool_context``:
fork where it exists, spawn elsewhere). Tier-1 runs the transport rule — a
worker is started with the graph — on each, whatever this platform picks."""


@pytest.fixture
def start_method(request, monkeypatch):
    """Pin every pool built in the test to one start method (use with
    ``@pytest.mark.parametrize("start_method", START_METHODS, indirect=True)``)."""
    try:
        context = multiprocessing.get_context(request.param)
    except ValueError:  # pragma: no cover - platform-dependent
        pytest.skip(f"no {request.param} start method on this platform")
    monkeypatch.setattr(pool_mod, "_pool_context", lambda: context)
    return request.param
