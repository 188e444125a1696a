"""One run of one workload: set-up, reference, warm pass, timed cycles, checks.

Timing discipline lives here, not in the workloads. The op script is fixed,
so every cycle — on every commit — does identical work; only how many
whole cycles fit into ``--seconds`` varies. Per-op latency is the median
of that op over the cycles, end-to-end numbers are computed from those, and
each timing metric's cycle-to-cycle spread is recorded beside it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.dsql import DSQL
from repro.graph import LabeledGraph

from . import env, layers, stats
from .calibrate import Calibrator
from .inputs import SPECS, Inputs, generate
from .workloads import (
    SYSTEMS,
    build_graph,
    count_failed,
    keys_of,
    reference,
    result_key,
    run_cycle,
    run_ops,
)

SETUP_REPS = 3
REBUILD_SAMPLE = 16
"""Queries compared between the mutated graph and one rebuilt from its final edge set."""

TIMING_METRICS = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p95")


def load_benchmark() -> Dict[str, object]:
    return json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def set_up(inputs: Inputs, reps: int, calibrator: Calibrator):
    """Set up ``reps`` times; keep the last system, and the first one's graph as twin.

    ``setup_s`` runs from the generated lists in memory to the first answer:
    graph, index cache, sessions / catalog / server start, first op — scaled
    to the nominal machine by a calibration reading on either side. Returns
    ``(system, twin graph or None, per-rep timings, first answers)``.
    """
    timings: List[Dict[str, float]] = []
    first_keys = []
    system = twin = None
    for rep in range(reps):
        if system is not None:
            # Tear the previous set-up down outside the next one's timed region.
            system.close()
            system = None
            gc.collect()
        rep_timings: Dict[str, float] = {}
        before = calibrator.measure()
        start = time.perf_counter()
        system = SYSTEMS[inputs.spec.driver](inputs, rep_timings)
        answers: List = []
        run_ops(system, inputs.ops[:1], [], answers)
        elapsed = time.perf_counter() - start
        rep_timings["setup_s"] = elapsed * calibrator.factor(before, calibrator.measure())
        timings.append(rep_timings)
        first_keys += keys_of(system, answers)
        if rep == 0 and reps > 1:
            twin = getattr(system, "graph", None)
    return system, twin, timings, first_keys


def check_restored(system, inputs: Inputs) -> Tuple[int, int]:
    """After a mutating script: the graph is back, and mutate-then-query ≡ rebuild-then-query.

    Returns ``(attempted, failed)`` over the edge-set comparison plus
    ``REBUILD_SAMPLE`` queries answered by the system under test and by a
    fresh ``DSQL`` on a graph rebuilt from the system's final edge set.
    """
    final_edges = sorted((min(u, v), max(u, v)) for u, v in system.graph.edges())
    failed = int(final_edges != inputs.edges)
    rebuilt = LabeledGraph(inputs.labels, final_edges)
    session = DSQL(rebuilt, inputs.spec.config())
    sample = [op for op in inputs.ops if op.kind == "read"][:REBUILD_SAMPLE]
    answers: List = []
    run_ops(system, sample, [], answers)
    for op, (key, _) in zip(sample, keys_of(system, answers)):
        expected, _ = result_key(session.query(inputs.queries[op.query]))
        failed += int(key != expected)
    return 1 + len(sample), failed


def summarize(
    inputs: Inputs,
    cycles: List[Tuple[List[float], int, float]],
    min_beyond: int,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """``(end-to-end values, per-metric cycle spreads, extras)`` of the timed cycles.

    ``cycles`` holds ``(per-op seconds, correct ops, wall seconds)`` each.
    """
    reads = [i for i, op in enumerate(inputs.ops) if op.kind == "read"]
    writes = [i for i, op in enumerate(inputs.ops) if op.kind == "write"]
    per_cycle: Dict[str, List[float]] = {"ops_per_s": [], "op_ms_p50": [], "op_ms_p95": []}
    for latencies, correct, wall in cycles:
        read_ms = [latencies[i] * 1e3 for i in reads]
        per_cycle["ops_per_s"].append(correct / wall)
        per_cycle["op_ms_p50"].append(stats.percentile(read_ms, 50, min_beyond))
        per_cycle["op_ms_p95"].append(stats.percentile(read_ms, 95, min_beyond))
    per_op_ms = [x * 1e3 for x in stats.per_op_median([c[0] for c in cycles])]
    read_ms = [per_op_ms[i] for i in reads]
    values = {
        "ops_per_s": statistics.median(per_cycle["ops_per_s"]),
        "op_ms_p50": stats.percentile(read_ms, 50, min_beyond),
        "op_ms_p95": stats.percentile(read_ms, 95, min_beyond),
    }
    spreads = {
        name: stats.cycle_spread(series, "higher" if name == "ops_per_s" else "lower")
        for name, series in per_cycle.items()
    }
    extras = {"reads_per_cycle": len(reads), "writes_per_cycle": len(writes)}
    if writes:
        extras["write_ms_p50"] = statistics.median(per_op_ms[i] for i in writes)
    return values, spreads, extras


def timed_cycles(system, inputs: Inputs, expected, calibrator, seconds: float, smoke: bool):
    """Whole cycles until ``seconds`` have passed; ``(values, spreads, extras, attempted, failed)``.

    At least two cycles (one in a smoke run), so that every op's median rests
    on more than one sample.
    """
    cycles = []
    ratios: List[float] = []
    attempted = failed = 0
    started = time.perf_counter()
    while len(cycles) < (1 if smoke else 2) or (
        not smoke and time.perf_counter() - started < seconds
    ):
        latencies, answers, wall = run_cycle(system, inputs, calibrator)
        keys = keys_of(system, answers)
        bad = count_failed(keys, expected)
        attempted += len(keys)
        failed += bad
        cycles.append((latencies, len(keys) - bad, wall))
        if not ratios:
            ratios = [ratio for (_, ratio), op in zip(keys, inputs.ops) if op.kind == "read"]
    if inputs.spec.write_every:
        more_attempted, more_failed = check_restored(system, inputs)
        attempted += more_attempted
        failed += more_failed
    values, spreads, extras = summarize(
        inputs, cycles, 0 if smoke else stats.MIN_BEYOND
    )
    values["coverage_ratio_mean"] = statistics.fmean(ratios)
    extras["cycles"] = len(cycles)
    extras["kernel_ms_median"] = statistics.median(calibrator.readings)
    extras["kernel_ms_min"] = min(calibrator.readings)
    extras["kernel_ms_max"] = max(calibrator.readings)
    return values, spreads, extras, attempted, failed


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    corrupt: bool = False,
    out_dir: Path = env.ROOT / "perfbench" / "out",
) -> Dict[str, object]:
    """Run one workload; returns the full record (``metrics`` holds what was asked for)."""
    clock = [("start", time.perf_counter())]

    def phase_done(phase: str) -> None:
        clock.append((phase, time.perf_counter()))

    benchmark = load_benchmark()
    environment = env.capture()
    spec = SPECS[name].smoke() if smoke else SPECS[name]
    inputs = generate(spec, seed)
    calibrator = Calibrator(inputs.labels, inputs.edges, spec.kernel_ms)
    phase_done("generate")

    system, twin, setup_timings, first_keys = set_up(
        inputs, 1 if smoke else SETUP_REPS, calibrator
    )
    phase_done("set_up")
    values: Dict[str, float] = {}
    spreads: Dict[str, float] = {}
    extras: Dict[str, float] = {}
    try:
        if spec.driver == "engine" and not trace:
            # Fresh sessions on the system's own graph: the reference pass fills the
            # graph-level caches (plans, pools, adjacency masks), so it is the warm pass.
            expected = reference(inputs, system.graph, corrupt=corrupt)
        else:
            if twin is None:
                twin = build_graph(inputs, {})
            expected = reference(inputs, twin, corrupt=corrupt)
            run_cycle(system, inputs, calibrator)  # warm pass, untimed and unchecked
        attempted = len(first_keys)
        failed = count_failed(first_keys, [expected[0]] * len(first_keys))
        phase_done("reference_and_warm")
        if trace:
            values, more_attempted, more_failed = layers.trace(
                inputs, system, twin, expected, setup_timings, calibrator, out_dir
            )
        else:
            values, spreads, extras, more_attempted, more_failed = timed_cycles(
                system, inputs, expected, calibrator, seconds, smoke
            )
        attempted += more_attempted
        failed += more_failed
        phase_done("traced" if trace else "timed_and_checked")
    finally:
        closing = system.close()
    extras.update(
        {f"wall.{phase}_s": end - begin for (_, begin), (phase, end) in zip(clock, clock[1:])}
    )

    setup_series = [t["setup_s"] for t in setup_timings]
    values["setup_s"] = statistics.median(setup_series)
    spreads["setup_s"] = stats.cycle_spread(setup_series)
    values["peak_rss_mb"] = closing.get("peak_rss_mb", 0.0)
    environment["load_1min_after"] = env.load_1min()

    wanted = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: no value for metric(s) {missing}")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    noisy = sorted(n for n in TIMING_METRICS if spreads.get(n, 0.0) > bounds[n])
    return {
        "workload": name,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "inputs_sha256": inputs.sha256,
        "env": environment,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
        "spreads": {f"{n}.spread": s for n, s in sorted(spreads.items())},
        "noisy": noisy,
        "extras": extras,
    }
