"""Input generation and span bookkeeping (``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from harness.inputs import SPECS, generate, mutation_script  # noqa: E402
from harness.spans import Tracer  # noqa: E402


def test_benchmark_json_names_the_workloads_in_code():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (spec.name, spec.why) for spec in SPECS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])


def test_same_seed_same_inputs_other_seed_other_script():
    spec = SPECS["engine_heavy"].smoke()
    first, again, other = generate(spec, 3), generate(spec, 3), generate(spec, 4)
    assert first.sha256 == again.sha256
    assert [op.raw for op in first.ops] == [op.raw for op in again.ops]
    assert first.sha256 != other.sha256
    # The population is fixed; the seed orders it.
    assert sorted(op.raw for op in first.ops) == sorted(op.raw for op in other.ops)


def test_mutation_script_restores_the_graph_and_spaces_compactions():
    rng = random.Random(7)
    edges = sorted({(min(u, v), max(u, v)) for u in range(40) for v in (u + 1, u + 7) if v < 40})
    script = mutation_script(rng, 40, edges, writes=12, compactions=3)
    assert [threshold == 1 for _, threshold in script] == [False, False, False, True] * 3
    present = set(edges)
    for batch, _ in script:
        assert len(batch) == 8
        for kind, u, v in batch:
            edge = (min(u, v), max(u, v))
            # Every op takes effect: no duplicate add, no absent remove.
            assert (edge in present) == (kind == "remove_edge")
            present.symmetric_difference_update({edge})
    assert present == set(edges)


def test_mutation_script_rejects_sizes_that_cannot_restore():
    with pytest.raises(ValueError):
        mutation_script(random.Random(0), 10, [(0, 1)], writes=5, compactions=1)
    with pytest.raises(ValueError):
        mutation_script(random.Random(0), 10, [(0, 1)], writes=8, compactions=3)


def test_self_time_is_duration_minus_direct_children(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", 0):
        with tracer.span("inner", 0):
            with tracer.span("leaf", 0):
                pass
        with tracer.span("inner", 0):
            pass
    (outer,) = tracer.durations("outer")
    assert len(tracer.durations("inner")) == 2
    assert tracer.self_total("outer") == pytest.approx(outer - tracer.total("inner"))
    assert tracer.self_total("inner") == pytest.approx(
        tracer.total("inner") - tracer.total("leaf")
    )
    assert tracer.write(tmp_path / "trace.jsonl") == 4
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    by_id = {row["id"]: row for row in rows}
    assert rows[0]["name"] == "outer" and rows[0]["parent"] is None
    assert all(by_id[row["parent"]]["name"] == "outer" for row in rows if row["name"] == "inner")
