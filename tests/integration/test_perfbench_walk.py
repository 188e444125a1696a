"""The benchmark's hand-mirrored query walk must stay ``DSQL.query``.

``perfbench/harness/layers.py::walk_query`` re-implements
``DSQL._query_impl`` span by span so the traced run can time each layer.
The perfbench tree is frozen between benchmark-defining PRs, so an engine
change that drifts from the mirror would silently mis-attribute per-layer
time (or break the frozen harness's call shapes). These tests pin the
mirror to the real pipeline from the engine side.
"""

from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.coverage.objectives import OBJECTIVE_NAMES, build_weight_profile
from repro.datasets.registry import make_dataset
from repro.queries.generator import query_set

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """The frozen harness package (it lives outside ``src``, import by path)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("harness.layers")


@pytest.mark.parametrize("objective", sorted(OBJECTIVE_NAMES))
def test_walk_query_equals_dsql_query(harness, objective):
    graph = make_dataset("yeast", scale=0.05, seed=7)
    config = DSQLConfig(k=6, objective=objective, node_budget=200_000)
    profile = build_weight_profile(graph, None) if objective == "weighted-vertex" else None
    session = DSQL(graph, config=config)
    plan_cache = graph.index_cache().plan_cache
    for op_id, query in enumerate(query_set(graph, 4, 3, seed=11)):
        walked = harness.walk_query(harness.Tracer(), graph, config, query, profile, op_id)
        lookups = plan_cache.hits + plan_cache.misses
        real = session.query(query)
        # One plan acquisition per query, exactly like the walk's one span.
        assert plan_cache.hits + plan_cache.misses == lookups + 1
        assert walked.to_dict() == real.to_dict()
        assert dataclasses.asdict(walked.stats) == dataclasses.asdict(real.stats)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["engine_stream", "service_mixed"])
def test_perfbench_smoke_trace_runs(workload):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
