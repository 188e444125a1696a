"""The traced run: per-layer metrics from spans around public calls.

Instead of calling the top-level entry point, the harness walks the same
pipeline itself, one public function at a time, with a span around each
call (``walk_query`` mirrors ``DSQL._query_impl``, ``walk_request`` mirrors
``QueryService.handle_post`` + ``handle_query`` / ``handle_ingest``). The
walked answers are checked against the same reference as the real ones, so
a walk that drifts from the program fails loudly, and the walked per-op
total must stay within 10 % of the real entry point's
(``bench.layer_sum_ratio``; the passes run real, walked, walked, real, every
op is scaled by the calibration readings around its chunk and counts with
the faster of its two times, so neither a stall nor a drift of the machine
decides the ratio).

Every workload reports every layer metric. Its own pipeline is walked over a
whole cycle; layers that pipeline does not reach are probed on the
workload's own graph and queries — an engine workload pushes its first
reads through an in-process service, a service workload has its queries
walked through the engine, a read-only workload gets a short restoring
mutation script — so a layer's number exists everywhere and the contrast
between workloads is in the values. Layer times are as measured (not
scaled by the calibration kernel); ``bench.kernel_ms`` is the kernel's own
time during the run, for whoever wants to scale them.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.core.dsql import DSQL
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.result import DSQResult
from repro.core.state import SearchStats
from repro.coverage.objectives import build_weight_profile, make_objective
from repro.indexes.candidates import CandidateIndex
from repro.indexes.plans import compile_plan
from repro.kernels import KERNEL_KINDS, bitset_and_members, intersect_sorted
from repro.observability import Instrumentation
from repro.parallel import BatchExecutor
from repro.service import ServiceServer
from repro.service.schemas import (
    mutation_to_json,
    parse_ingest_request,
    parse_json_body,
    parse_query_request,
    result_to_json,
)

from . import env
from .calibrate import Calibrator
from .inputs import GRAPH_NAME, OBJECTIVES, Inputs, Op, mutation_script, write_op
from .spans import Tracer
from .workloads import (
    InprocSystem,
    Key,
    body_key,
    count_failed,
    http_post,
    inproc_service,
    keys_of,
    result_key,
    run_cycle,
)

PROBE_OPS = 100
"""Ops per pass of a probe (a layer the workload's own pipeline does not reach)."""

PROBE_QUERIES = 40
"""Distinct queries used by the objective, parallel, observability and micro probes."""

PROBE_WRITES = 20
"""Batches of the restoring mutation script a read-only workload is probed with."""


class Tally:
    """Attempted / failed ops of the traced run (walked answers are checked too)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, keys: Sequence[Tuple[Key, float]], expected: Sequence[Tuple[Key, float]]):
        self.attempted += len(expected)
        self.failed += count_failed(keys, expected)


class Passes(NamedTuple):
    """Real, walked, walked, real: four passes of one op list through one pipeline.

    The second pair runs in the opposite order, so that a machine that drifts
    while the passes run slows both kinds alike.
    """

    ops: Sequence[Op]
    real: Tuple[List[float], List[float]]  # per-op seconds through the real entry point
    walked: Tuple[List[float], List[float]]  # per-op seconds of the walked pipeline
    real_speed: Tuple[List[float], List[float]]  # per-op calibration factor, real passes
    walked_speed: Tuple[List[float], List[float]]  # per-op calibration factor, walked passes
    real_answers: List  # service: response bodies of both real passes
    walked_answers: List  # engine: DSQResults; service: response bodies (first walk)

    def real_ms(self, kind: str) -> List[float]:
        """Per-op latency through the real entry point (mean of both passes), one kind."""
        return [
            (a + b) / 2 * 1e3 for a, b, op in zip(*self.real, self.ops) if op.kind == kind
        ]

    def layer_sum_ratio(self) -> float:
        """Walked total over real total: every op scaled to one machine speed by the
        calibration readings around its chunk, and taken at the faster of its two times."""

        def total(passes, speeds) -> float:
            (a, b), (fa, fb) = passes, speeds
            return sum(min(x * fx, y * fy) for x, fx, y, fy in zip(a, fa, b, fb))

        return total(self.walked, self.walked_speed) / total(self.real, self.real_speed)

    def round_spread(self) -> float:
        first, second = (sum(series) for series in self.real)
        return abs(first - second) / min(first, second)


# ----------------------------------------------------------------------
# Walked pipelines
# ----------------------------------------------------------------------
def walk_query(tr: Tracer, graph, config, query, profile, op_id: int) -> DSQResult:
    """``DSQL._query_impl`` for a plain config (plans on, no deadline), span by span."""
    cache = graph.index_cache()
    with tr.span("core.query", op_id):
        stats = SearchStats()
        with tr.span("indexes.plan", op_id):
            plan = cache.plan_cache.get_or_compile(
                query, cache, use_compression=config.use_compression
            )
        with tr.span("indexes.candidates", op_id):
            candidates = CandidateIndex(graph, query, cache=cache, plan=plan)
        with tr.span("core.phase1", op_id):
            phase1 = run_phase1(graph, query, config, candidates, stats, plan=plan)
        state = phase1.state
        k = config.k
        truncated = stats.budget_exhausted or stats.deadline_exhausted
        objective = make_objective(config.objective, query=query, weight_profile=profile)
        optimal, reason = False, ""
        if (
            phase1.exhausted
            and len(state) < k
            and not truncated
            and objective.certifies_exhausted_optimal
        ):
            optimal, reason = True, "exhausted"
        elif len(state) == k and state.is_disjoint() and objective.certifies_disjoint_optimal:
            optimal, reason = True, "disjoint"
        embeddings = list(state.embeddings)
        is_vertex = config.objective == "vertex"
        coverage = state.coverage if is_vertex else objective.collection_coverage(embeddings)
        max_cov = objective.max_coverage(k)
        ratio = coverage / max_cov if max_cov else 1.0
        if (
            not optimal
            and config.run_phase2
            and len(state) == k
            and ratio < config.phase2_ratio_target
            and not truncated
        ):
            with tr.span("core.phase2", op_id):
                phase2 = run_phase2(
                    graph, query, config, candidates, phase1, stats, plan=plan,
                    objective=None if is_vertex else objective,
                )
            embeddings, coverage = phase2.embeddings, phase2.coverage
        return DSQResult(
            embeddings=embeddings, k=k, q=query.size, coverage=coverage, level=phase1.level,
            optimal=optimal, optimal_reason=reason, stats=stats, objective=config.objective,
            coverage_bound=None if is_vertex else max_cov,
        )


def walk_request(tr: Tracer, service, op: Op, op_id: int, notes: Dict[str, list]):
    """``handle_post`` + ``handle_query`` / ``handle_ingest``, span by span; the body."""
    entry = service.catalog.get(GRAPH_NAME)
    admission = service.admission
    with tr.span("service.handle_post", op_id):
        if op.kind == "read":
            with tr.span("service.parse", op_id):
                request = parse_query_request(parse_json_body(op.raw))
            with tr.span("service.config", op_id):
                config = entry.request_config(
                    k=request.k, alpha=request.alpha, time_budget_ms=request.time_budget_ms,
                    objective=request.objective, use_compression=request.use_compression,
                )
            with tr.span("cost.estimate", op_id):
                estimate = entry.estimate_cost(request.query, config)
            with tr.span("service.admit", op_id):
                ticket = admission.try_admit(estimate.work_units)
            try:
                started = time.perf_counter()
                with tr.span("service.answer", op_id):
                    result = entry.answer(request.query, config)
                elapsed_ms = (time.perf_counter() - started) * 1e3
                entry.observe_cost(estimate, result, config)
                with tr.span("service.encode", op_id):
                    body = result_to_json(result, graph=request.graph, elapsed_ms=elapsed_ms)
                    body["estimated_cost"] = estimate.to_wire()
                    text = json.dumps(body, sort_keys=True)
            finally:
                with tr.span("service.admit", op_id):
                    admission.release(ticket)
            notes["response_bytes"].append(len(text))
            return body
        with tr.span("service.write.parse", op_id):
            request = parse_ingest_request(GRAPH_NAME, parse_json_body(op.raw))
        with tr.span("service.admit", op_id):
            ticket = admission.try_admit(1.0)
        try:
            plan_cache = entry.index_cache.plan_cache
            plans_before = plan_cache.info()["size"]
            started = time.perf_counter()
            with tr.span("service.write.mutate", op_id):
                summary = entry.mutate(
                    request.ops, compaction_threshold=request.compaction_threshold
                )
            elapsed_ms = (time.perf_counter() - started) * 1e3
            notes["plans_evicted"].append(max(0, plans_before - plan_cache.info()["size"]))
            notes["compacted"].append(summary.compacted)
            with tr.span("service.encode", op_id):
                body = mutation_to_json(summary, graph=GRAPH_NAME, elapsed_ms=elapsed_ms)
                json.dumps(body, sort_keys=True)
        finally:
            with tr.span("service.admit", op_id):
                admission.release(ticket)
        return body


# ----------------------------------------------------------------------
# Real / walked / real passes
# ----------------------------------------------------------------------
def _timed(ops: Sequence[Op], step: Callable[[int, Op], object]) -> Tuple[List[float], List]:
    latencies, answers = [], []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        answer = step(i, op)
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    return latencies, answers


def _timed_chunks(
    ops: Sequence[Op], step: Callable[[int, Op], object], cal: Calibrator, chunk: int
) -> Tuple[List[float], List, List[float]]:
    """:func:`_timed` with the calibration kernel read every ``chunk`` ops.

    Returns the latencies as measured (spans are as measured too), the
    answers, and each op's scale to the nominal machine. A pass takes
    seconds and this box drifts within seconds, so one factor per pass would
    leave ``bench.layer_sum_ratio`` to the drift (0.89–1.17 when tried).
    """
    latencies, answers, factors = [], [], []
    reading = cal.measure()
    for first in range(0, len(ops), chunk):
        part = ops[first : first + chunk]
        times, got = _timed(part, lambda i, op: step(first + i, op))
        latencies += times
        answers += got
        factors += [cal.factor(reading, reading := cal.measure())] * len(part)
    return latencies, answers, factors


def engine_walk(tr, graph, inputs: Inputs, ops, expected, tally: Tally, cal: Calibrator):
    """Walk ``ops`` through the engine pipeline; ``(per-op seconds, DSQResults, factors)``."""
    spec = inputs.spec
    configs = {objective: spec.config(objective) for objective in OBJECTIVES}
    profile = build_weight_profile(graph, None)
    latencies, results, factors = _timed_chunks(
        ops,
        lambda i, op: walk_query(
            tr, graph, configs[op.objective], inputs.queries[op.query],
            profile if op.objective == "weighted-vertex" else None, i,
        ),
        cal,
        spec.chunk_ops,
    )
    tally.check([result_key(result) for result in results], expected)
    return latencies, results, factors


PASS_ORDER = ("real", "walked", "walked", "real")


def engine_passes(tr, system, inputs: Inputs, expected, tally: Tally, cal: Calibrator) -> Passes:
    real, walked, real_speed, walked_speed, results = [], [], [], [], []
    for kind in PASS_ORDER:
        if kind == "real":
            latencies, answers, factors = _timed_chunks(
                inputs.ops, lambda i, op: system.execute(op), cal, inputs.spec.chunk_ops
            )
            tally.check(keys_of(system, answers), expected)
            real.append(latencies)
            real_speed.append(factors)
        else:
            latencies, answers, factors = engine_walk(
                tr, system.graph, inputs, inputs.ops, expected, tally, cal
            )
            walked.append(latencies)
            walked_speed.append(factors)
            results = results or answers
    return Passes(
        inputs.ops, tuple(real), tuple(walked), tuple(real_speed), tuple(walked_speed), [], results
    )


def service_passes(
    tr, service, ops, expected, tally: Tally, notes, cal: Calibrator, chunk: int
) -> Passes:
    """``expected`` may be empty: a probe whose answers nothing was computed for."""
    system = InprocSystem.over(service)
    real, walked, real_speed, walked_speed = [], [], [], []
    real_bodies, walked_bodies = [], []
    for kind in PASS_ORDER:
        if kind == "real":
            latencies, answers, factors = _timed_chunks(
                ops, lambda i, op: system.execute(op), cal, chunk
            )
            tally.check(keys_of(system, answers), expected)
            real.append(latencies)
            real_speed.append(factors)
            real_bodies += [body for _, body in answers]
        else:
            latencies, bodies, factors = _timed_chunks(
                ops, lambda i, op: walk_request(tr, service, op, i, notes), cal, chunk
            )
            tally.check([body_key(200, body) for body in bodies], expected)
            walked.append(latencies)
            walked_speed.append(factors)
            walked_bodies = walked_bodies or bodies
    return Passes(
        ops, tuple(real), tuple(walked), tuple(real_speed), tuple(walked_speed),
        real_bodies, walked_bodies,
    )


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def engine_metrics(tr: Tracer, results: Sequence[DSQResult], values: Dict[str, float]) -> None:
    """Engine layers: times per walked op (all walked passes), counts per result (one pass)."""
    walked = len(tr.durations("core.query"))
    search_s = tr.total("core.phase1") + tr.total("core.phase2")
    values["indexes.plan.ms_per_op"] = tr.total("indexes.plan") / walked * 1e3
    values["indexes.candidates.build_ms"] = tr.total("indexes.candidates") / walked * 1e3
    values["core.phase1.ms_per_op"] = tr.total("core.phase1") / walked * 1e3
    values["core.phase2.ms_per_op"] = tr.total("core.phase2") / walked * 1e3
    values["core.phase2.run_share"] = len(tr.durations("core.phase2")) / walked
    values["core.query.self_ms"] = tr.self_total("core.query") / walked * 1e3
    n = len(results)
    passes = walked / n
    expansions = sum(r.stats.nodes_expanded for r in results)
    values["core.expansions_per_op"] = expansions / n
    values["core.expansions_per_ms"] = expansions * passes / (search_s * 1e3)
    values["core.budget_exhausted_share"] = sum(r.stats.budget_exhausted for r in results) / n
    for kind in KERNEL_KINDS:
        values[f"kernels.dispatch.{kind}_per_op"] = (
            sum(getattr(r.stats, f"kernel_{kind}") for r in results) / n
        )


def read_metrics(tr: Tracer, passes: Passes, notes, values: Dict[str, float]) -> None:
    """Service read path. Call before any other pass adds read spans to ``tr``."""
    reads = len(tr.durations("service.parse"))
    values["service.parse_us"] = tr.total("service.parse") / reads * 1e6
    values["service.config_us"] = tr.total("service.config") / reads * 1e6
    values["cost.estimate_us"] = tr.total("cost.estimate") / reads * 1e6
    values["service.admit_us"] = (
        tr.total("service.admit") / len(tr.durations("service.handle_post")) * 1e6
    )
    values["service.answer_ms"] = tr.total("service.answer") / reads * 1e3
    values["service.encode_us"] = (
        tr.total("service.encode") / len(tr.durations("service.encode")) * 1e6
    )
    values["service.response_bytes"] = statistics.fmean(notes["response_bytes"])
    values["service.handle_post_ms"] = statistics.median(passes.real_ms("read"))
    walked_reads = [b for b in passes.walked_answers if "from_cache" in b]
    values["service.memo.hit_ratio"] = sum(b["from_cache"] for b in walked_reads) / len(
        walked_reads
    )
    values["service.rejected_share"] = sum(
        1 for b in passes.real_answers if b.get("error", {}).get("code") == "overloaded"
    ) / len(passes.real_answers)


def write_metrics(tr: Tracer, passes: Passes, notes, values: Dict[str, float]) -> None:
    writes = len(tr.durations("service.write.parse"))
    values["service.write.parse_us"] = tr.total("service.write.parse") / writes * 1e6
    values["service.write.mutate_ms"] = tr.total("service.write.mutate") / writes * 1e3
    values["service.write_ms_p50"] = statistics.median(passes.real_ms("write"))
    values["indexes.plan.evicted_per_write"] = statistics.fmean(notes["plans_evicted"])
    values["graph.compactions_per_round"] = sum(notes["compacted"]) / len(passes.walked)
    real_ms = [(a + b) / 2 * 1e3 for a, b in zip(*passes.real)]
    values["service.read_after_write_ms"] = statistics.fmean(
        ms
        for ms, op, previous in zip(real_ms[1:], passes.ops[1:], passes.ops)
        if op.kind == "read" and previous.kind == "write"
    )


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _mean_us(fn: Callable[[], object], repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6


def probe_micro(graph, inputs: Inputs, values: Dict[str, float]) -> None:
    """Single public calls on warm state: plan compile / lookup, memo hit, kernels."""
    cache = graph.index_cache()
    queries = inputs.queries[:PROBE_QUERIES]
    start = time.perf_counter()
    plans = [compile_plan(query, cache) for query in queries]
    values["indexes.plan.compile_ms"] = (time.perf_counter() - start) / len(queries) * 1e3
    cache.plan_cache.get_or_compile(queries[0], cache)
    values["indexes.plan.lookup_us"] = _mean_us(
        lambda: cache.plan_cache.get_or_compile(queries[0], cache), 2000
    )
    session = DSQL(graph, inputs.spec.config())
    session.query_many([queries[0]])
    values["core.memo.hit_us"] = _mean_us(lambda: session.query_many([queries[0]]), 2000)
    start = time.perf_counter()
    build_weight_profile(graph, None)
    values["coverage.weight_profile.build_ms"] = (time.perf_counter() - start) * 1e3

    # Kernels on the workload's own pools: an adjacency row against a pool
    # (skewed sides, the engine's join) and two pools (balanced sides).
    sorted_s = bitset_s = 0.0
    sorted_n = bitset_n = 0
    for plan in plans:
        pools = [(u, pool) for u, pool in enumerate(plan.pools) if pool]
        if len(pools) < 2:
            continue
        (u, first), (_, second) = pools[:2]
        row = cache.adjacency_slice(first[0])
        start = time.perf_counter()
        intersect_sorted(row, second)
        intersect_sorted(first, second)
        sorted_s += time.perf_counter() - start
        sorted_n += len(row) + len(first) + 2 * len(second)
        adjacency_mask, pool_mask = cache.adjacency_mask(first[0]), plan.cand_mask(u)
        start = time.perf_counter()
        bitset_and_members(adjacency_mask, pool_mask)
        bitset_s += time.perf_counter() - start
        bitset_n += len(row) + len(first)
    values["kernels.intersect_sorted.ns_per_elem"] = sorted_s / max(1, sorted_n) * 1e9
    values["kernels.bitset_and_members.ns_per_elem"] = bitset_s / max(1, bitset_n) * 1e9


def probe_objectives(graph, inputs: Inputs, values: Dict[str, float]) -> None:
    """The same queries under each objective, one warm session each."""
    queries = inputs.queries[:PROBE_QUERIES]
    swaps = 0
    for objective in OBJECTIVES:
        session = DSQL(graph, inputs.spec.config(objective))
        session.query(queries[0])
        start = time.perf_counter()
        results = [session.query(query) for query in queries]
        elapsed = time.perf_counter() - start
        values[f"coverage.{objective}.ms_per_op"] = elapsed / len(queries) * 1e3
        values[f"coverage.{objective}.expansions_per_op"] = statistics.fmean(
            r.stats.nodes_expanded for r in results
        )
        swaps += sum(r.stats.phase2_swaps for r in results)
    values["coverage.swaps_per_op"] = swaps / (len(queries) * len(OBJECTIVES))


def probe_parallel(graph, inputs: Inputs, values: Dict[str, float]) -> None:
    """``BatchExecutor`` per strategy, two workers, result memo off."""
    queries = inputs.queries[:PROBE_QUERIES]
    config = dataclasses.replace(inputs.spec.config(), query_cache_size=0)
    retried = 0
    for strategy in ("serial", "thread", "process"):
        # The one probe that needs both cores: the run is pinned to one otherwise.
        with env.all_cores(), BatchExecutor(
            DSQL(graph, config), strategy=strategy, jobs=2
        ) as executor:
            start = time.perf_counter()
            executor.run(queries)
            first = time.perf_counter() - start
            start = time.perf_counter()
            executor.run(queries)
            second = time.perf_counter() - start
            retried += executor.last_report.chunks_retried
            values[f"parallel.{strategy}.ms_per_op"] = second / len(queries) * 1e3
            if strategy == "process":
                # The first batch pays publication and worker start; the second does not.
                values["parallel.process.startup_s"] = max(0.0, first - second)
                pool = executor.pool
                values["parallel.process.shared_bytes"] = pool.shared_nbytes if pool else 0
    values["parallel.process.speedup_x"] = (
        values["parallel.serial.ms_per_op"] / values["parallel.process.ms_per_op"]
    )
    values["parallel.chunks_retried"] = retried


def probe_observability(graph, inputs: Inputs, values: Dict[str, float]) -> None:
    """The same queries with ``Instrumentation()`` attached and without, alternating."""
    config = inputs.spec.config()
    plain = DSQL(graph, config)
    instrumented = DSQL(graph, config, instrumentation=Instrumentation())
    spent = {id(plain): 0.0, id(instrumented): 0.0}
    for query in inputs.queries[:PROBE_QUERIES]:
        plain.query(query)  # untimed: the first touch of a query's vertices is the slow one
        for session in (plain, instrumented, instrumented, plain):
            start = time.perf_counter()
            session.query(query)
            spent[id(session)] += time.perf_counter() - start
    graph.index_cache().attach_metrics(None)
    values["observability.enabled_overhead_pct"] = (
        (spent[id(instrumented)] - spent[id(plain)]) / spent[id(plain)] * 100.0
    )


def probe_raw_mutation(tr: Tracer, twin, script, values: Dict[str, float]) -> None:
    """``LabeledGraph.mutate`` alone on the twin, compacting batches apart from the rest."""
    for i, (mutation, threshold) in enumerate(script):
        with tr.span("graph.compact" if threshold == 1 else "graph.mutate", i):
            twin.mutate(mutation, compaction_threshold=threshold)
    values["graph.mutate.ms_per_batch"] = statistics.fmean(tr.durations("graph.mutate")) * 1e3
    values["graph.compact.ms"] = statistics.fmean(tr.durations("graph.compact")) * 1e3


def probe_http(service, ops: Sequence[Op], values: Dict[str, float]) -> None:
    """Memo-hit requests in-process, then the same over a socket to the same service."""
    system = InprocSystem.over(service)
    for op in ops:
        system.execute(op)  # prime the memo
    inproc, _ = _timed(ops, lambda i, op: system.execute(op))
    server = ServiceServer(service, port=0).start()
    try:
        port = server.address[1]
        over_http, _ = _timed(ops, lambda i, op: http_post(port, op))
    finally:
        server.close()
    values["service.http_ms"] = (statistics.median(over_http) - statistics.median(inproc)) * 1e3


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def trace(
    inputs: Inputs,
    system,
    twin,
    expected: Sequence[Tuple[Key, float]],
    setup_timings: List[Dict[str, float]],
    calibrator: Calibrator,
    out_dir: Path,
) -> Tuple[Dict[str, float], int, int]:
    """All per-layer metrics of one workload; ``(values, attempted, failed)``.

    ``system`` is warm (one untimed cycle has run); ``twin`` is the reference
    graph, back in its initial state.
    """
    spec = inputs.spec
    tr, tally = Tracer(), Tally()
    notes: Dict[str, list] = {"response_bytes": [], "plans_evicted": [], "compacted": []}
    values: Dict[str, float] = {"datasets.synth_s": inputs.synth_s}
    for name in ("graph.build_s", "indexes.cache_build_s"):
        values[name] = statistics.median(t[name] for t in setup_timings)
    reads = [op for op in inputs.ops if op.kind == "read"]
    mini = mutation_script(
        random.Random(f"{spec.name}:{inputs.seed}:probe-mutations"),
        len(inputs.labels), inputs.edges, PROBE_WRITES, 2,
    )
    probe_writes: List[Op] = []  # a read after every write
    for i, (mutation, threshold) in enumerate(mini):
        probe_writes += [write_op(mutation, threshold), reads[i % len(reads)]]

    # The http driver's server lives in a child the walk cannot reach into: its
    # pipeline is walked on an identical in-process catalog over the twin.
    calibrator.readings.clear()
    if spec.driver == "http":
        over_http, answers, _ = run_cycle(system, inputs, None)
        tally.check(keys_of(system, answers), expected)
    probe_raw_mutation(tr, twin, mini, values)
    if spec.driver == "inproc":
        service = system.service
    else:
        service = inproc_service(twin, spec.config())
    entry = service.catalog.get(GRAPH_NAME)
    graph = system.graph if spec.driver == "engine" else entry.graph
    cache = graph.index_cache()

    def counters() -> Dict[str, Tuple[int, int]]:
        """(hits, misses) of the plan cache, the candidate-pool memo and the result memo."""
        plans, pools, memo = cache.plan_cache.info(), cache.memo_info(), entry.default_session.stats
        return {
            "plan": (plans["hits"], plans["misses"]),
            "pool": (pools["hits"], pools["misses"]),
            "memo": (memo.query_cache_hits, memo.query_cache_misses),
        }

    def hit_ratio(which: str, before, after) -> float:
        hits, misses = (new - old for new, old in zip(after[which], before[which]))
        return hits / (hits + misses) if hits + misses else 0.0

    # -- the workload's own pipeline over a whole cycle ----------------------
    if spec.driver == "engine":
        before = counters()
        main = engine_passes(tr, system, inputs, expected, tally, calibrator)
        after = counters()
        engine_metrics(tr, main.walked_answers, values)
        before_service = counters()
        served = service_passes(
            tr, service, reads[:PROBE_OPS], expected[:PROBE_OPS], tally, notes, calibrator,
            spec.chunk_ops,
        )
        after_service = counters()
    else:
        ops = inputs.ops if spec.driver == "inproc" else list(inputs.client_ops(0))
        if spec.driver == "http":
            warm = InprocSystem.over(service)
            for op in ops:
                warm.execute(op)  # the child had its untimed cycle; so does the stand-in
        before = before_service = counters()
        main = served = service_passes(
            tr, service, ops, expected[: len(ops)], tally, notes, calibrator, spec.chunk_ops
        )
        after = after_service = counters()
        distinct = [Op("read", qi, "vertex", "", b"") for qi in range(spec.distinct)]
        _, results, _ = engine_walk(tr, graph, inputs, distinct, [], tally, calibrator)
        engine_metrics(tr, results, values)
    read_metrics(tr, served, notes, values)
    values["indexes.plan.hit_ratio"] = hit_ratio("plan", before, after)
    values["indexes.pool_memo.hit_ratio"] = hit_ratio("pool", before, after)
    values["core.memo.hit_ratio"] = hit_ratio("memo", before_service, after_service)
    values["bench.layer_sum_ratio"] = main.layer_sum_ratio()
    values["bench.trace_overhead_pct"] = (main.layer_sum_ratio() - 1.0) * 100.0
    values["bench.round_spread_max"] = main.round_spread()

    # -- writes: the workload's own, or a short restoring script -------------
    written = main if spec.write_every else service_passes(
        tr, service, probe_writes, [], tally, notes, calibrator, spec.chunk_ops
    )
    write_metrics(tr, written, notes, values)

    # -- engine-level probes, then the socket --------------------------------
    probe_micro(graph, inputs, values)
    probe_objectives(graph, inputs, values)
    probe_observability(graph, inputs, values)
    probe_parallel(graph, inputs, values)
    if spec.driver == "http":
        values["service.http_ms"] = statistics.median(over_http) * 1e3 - statistics.median(
            main.real_ms("read")
        )
    else:
        probe_http(service, reads[:PROBE_OPS], values)
    values["bench.kernel_ms"] = statistics.median(calibrator.readings)

    tr.write(out_dir / f"trace_{spec.name}.jsonl")
    return values, tally.attempted, tally.failed
