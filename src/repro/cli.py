"""Command-line interface: ``python -m repro`` / ``repro-dsql``.

Subcommands
-----------
``query``    — run DSQL (or a variant/baseline) on a dataset stand-in with a
               random query workload and print the summary table.
``datasets`` — list the registered dataset profiles and their statistics.
``schedule`` — print the SWAPα multi-scan α/γ schedule (Section 6.1.2).
``serve``    — run the long-running multi-graph query service (docs/service.md).
``mutate``   — apply live mutations to a graph on a running service
               (docs/mutation.md).
``estimate`` — print per-query cost estimates from the repro.cost model
               (docs/cost.md); ``--execute`` also runs the queries and
               reports estimated vs actual work units.

Examples::

    repro-dsql datasets
    repro-dsql query --dataset dblp --k 40 --edges 5 --queries 20
    repro-dsql query --dataset dblp --queries 20 --strategy process --jobs 4
    repro-dsql query --dataset youtube --solver COM --queries 10
    repro-dsql schedule --scans 8
    repro-dsql serve --dataset dblp --dataset yeast@1 --port 8707
    repro-dsql serve --dataset dblp --admission cost --work-unit-budget 50000
    repro-dsql estimate --dataset yeast --queries 10 --execute
    repro-dsql mutate --graph dblp --op add --edge 12 4711
    repro-dsql mutate --graph dblp --ops-file churn.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.core.config import VARIANTS, DSQLConfig, variant_config
from repro.coverage.bounds import alpha_gamma_schedule
from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.datasets.registry import dataset_names, get_profile, make_dataset
from repro.experiments.report import SUMMARY_HEADERS, render_table, summary_row
from repro.experiments.runner import (
    com_solver,
    first_k_solver,
    random_start_solver,
    run_batch,
    run_executor_batch,
)
from repro.graph.statistics import compute_statistics
from repro.observability import (
    Instrumentation,
    JsonlSink,
    Tracer,
    configure_logging,
    counters_line,
    set_default_instrumentation,
)
from repro.queries.generator import query_set

_BASELINES = {"COM", "FIRSTK", "RANDOM"}

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsql",
        description="Diversified top-k subgraph querying (DSQL, SIGMOD 2016)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="run a query workload on a dataset stand-in")
    q.add_argument("--dataset", required=True, choices=dataset_names())
    q.add_argument("--scale", type=float, default=None, help="dataset scale (default: bench scale)")
    q.add_argument("--k", type=int, default=40)
    q.add_argument("--edges", type=int, default=5, help="query size |E_Q|")
    q.add_argument("--queries", type=int, default=20, help="batch size")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument(
        "--solver",
        default="DSQL",
        choices=sorted(VARIANTS) + sorted(_BASELINES),
        help="DSQL variant or baseline",
    )
    q.add_argument("--no-phase2", action="store_true", help="disable DSQL-P2")
    _add_objective_flag(q)
    _add_executor_flags(q)
    _add_observability_flags(q)

    sub.add_parser("datasets", help="list dataset profiles")

    s = sub.add_parser("schedule", help="print the SWAP-alpha multi-scan schedule")
    s.add_argument("--scans", type=int, default=8)

    v = sub.add_parser("serve", help="run the multi-graph query service (docs/service.md)")
    v.add_argument(
        "--dataset",
        action="append",
        default=[],
        metavar="NAME[@SCALE]",
        help="load a registry dataset stand-in (repeatable); e.g. dblp or dblp@0.05",
    )
    v.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a graph file (.json or labeled edge list) under NAME (repeatable)",
    )
    v.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    v.add_argument("--port", type=int, default=8707, help="bind port (0 = ephemeral)")
    v.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-forked worker processes sharing the port via SO_REUSEPORT, "
        "each started with the loaded graphs (1 = single-process server)",
    )
    v.add_argument("--k", type=int, default=10, help="default top-k when a request omits k")
    v.add_argument(
        "--time-budget-ms",
        type=float,
        default=None,
        help="default per-request wall-clock deadline (requests may override)",
    )
    v.add_argument(
        "--query-cache-size",
        type=int,
        default=None,
        metavar="N",
        help="per-session result-memo capacity (default 128; 0 disables caching)",
    )
    v.add_argument(
        "--max-in-flight", type=int, default=8, help="admission: concurrent request cap"
    )
    v.add_argument(
        "--max-queue", type=int, default=32, help="admission: waiting-request cap (0 = none)"
    )
    v.add_argument(
        "--retry-after-s",
        type=float,
        default=1.0,
        help="base Retry-After hint attached to 429 rejections "
        "(scaled by live occupancy)",
    )
    v.add_argument(
        "--admission",
        choices=["count", "cost", "off"],
        default="count",
        help="admission mode: 'count' gates concurrent requests, 'cost' gates "
        "estimated work units (docs/cost.md), 'off' disables shedding",
    )
    v.add_argument(
        "--work-unit-budget",
        type=float,
        default=None,
        metavar="N",
        help="cost admission: estimated work units allowed in flight "
        "(default 50000; only with --admission cost)",
    )
    v.add_argument(
        "--client-quota",
        default=None,
        metavar="RATE[:BURST]",
        help="per-client token bucket in work units/second keyed by the "
        "X-Client-Id header; BURST defaults to 10x RATE",
    )
    v.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one JSONL line per request (client, graph, estimated vs "
        "actual work units, latency, status) to PATH",
    )
    v.add_argument(
        "--plan-cache-file",
        default=None,
        metavar="PATH",
        help="recompile the previous run's compiled-plan set at startup and "
        "save the current set on drain, so restarts serve warm plans "
        "(single-process server only)",
    )
    v.add_argument(
        "--calibration-file",
        default=None,
        metavar="PATH",
        help="load per-graph cost-calibration state at startup and save it on "
        "drain (single-process server only)",
    )
    v.add_argument(
        "--auto-time-budget",
        action="store_true",
        help="derive a per-query deadline from the cost estimate when a "
        "request sets no time_budget_ms (docs/cost.md)",
    )
    v.add_argument(
        "--work-unit-rate",
        type=float,
        default=None,
        metavar="R",
        help="assumed engine throughput in work units per millisecond, used "
        "by auto budgets and Retry-After hints (default 200)",
    )
    v.add_argument("--seed", type=int, default=0, help="seed for dataset stand-in builds")
    _add_objective_flag(v, help_extra=" (requests may override per call)")
    _add_observability_flags(v)

    m = sub.add_parser(
        "mutate", help="apply live mutations to a served graph (docs/mutation.md)"
    )
    m.add_argument(
        "--url",
        default="http://127.0.0.1:8707",
        help="base URL of a running repro service (default: the serve default port)",
    )
    m.add_argument("--graph", required=True, help="catalog name of the graph to mutate")
    m.add_argument(
        "--op",
        choices=["add", "remove"],
        default="add",
        help="edge operation for --edge (default: add)",
    )
    m.add_argument(
        "--edge",
        nargs=2,
        type=int,
        metavar=("U", "V"),
        help="apply one edge op via POST /v1/graphs/{g}/edges",
    )
    m.add_argument(
        "--ops-file",
        metavar="PATH",
        help="JSON file holding a list of ops "
        '(["add_vertex", label] / ["add_edge", u, v] / ["remove_edge", u, v]) '
        "sent as one batch via POST /v1/graphs/{g}/ingest",
    )

    c = sub.add_parser(
        "estimate", help="print per-query cost estimates (docs/cost.md)"
    )
    c.add_argument("--dataset", required=True, choices=dataset_names())
    c.add_argument("--scale", type=float, default=None, help="dataset scale (default: bench scale)")
    c.add_argument("--k", type=int, default=40)
    c.add_argument("--edges", type=int, default=5, help="query size |E_Q|")
    c.add_argument("--queries", type=int, default=10, help="workload size")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--execute",
        action="store_true",
        help="also run each query and report actual work units, the signed "
        "log estimation error, and the measured work-unit rate",
    )

    e = sub.add_parser("experiment", help="run one paper experiment")
    e.add_argument(
        "name",
        choices=["table2", "table3", "table4", "fig6k", "fig9"],
        help="experiment id (see DESIGN.md)",
    )
    e.add_argument("--dataset", default="dblp", choices=dataset_names())
    e.add_argument("--scale", type=float, default=None)
    e.add_argument("--k", type=int, default=40)
    e.add_argument("--edges", type=int, default=5)
    e.add_argument("--queries", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    _add_objective_flag(e)
    _add_executor_flags(e)
    _add_observability_flags(e)
    return parser


def _add_objective_flag(parser: argparse.ArgumentParser, help_extra: str = "") -> None:
    parser.add_argument(
        "--objective",
        choices=sorted(OBJECTIVE_NAMES),
        default="vertex",
        help="diversity objective (docs/objectives.md); 'vertex' is the paper's"
        + help_extra,
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    from repro.parallel.executor import STRATEGIES

    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="serial",
        help="batch execution strategy (DSQL solvers only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for the process strategy (default: available CPUs)",
    )
    parser.add_argument(
        "--time-budget-ms",
        type=float,
        default=None,
        help="per-query wall-clock budget; exceeding it truncates the search",
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="append structured trace events (JSONL) to PATH; see docs/observability.md",
    )
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=None,
        help="enable stderr logging for the 'repro' logger at this level",
    )


def _setup_observability(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional[Instrumentation]:
    """Build and install instrumentation from ``--trace-out``/``--log-level``.

    Either flag switches instrumentation on (the per-query debug log lines
    only exist on the instrumented path). Returns ``None`` — and installs
    nothing — when both are absent, keeping the default run on the
    zero-overhead path. A trace path that cannot be opened is a usage error.
    """
    trace_out = getattr(args, "trace_out", None)
    log_level = getattr(args, "log_level", None)
    if log_level is not None:
        configure_logging(log_level.upper())
    if trace_out is None and log_level is None:
        return None
    tracer = None
    if trace_out is not None:
        try:
            tracer = Tracer(JsonlSink(trace_out))
        except OSError as exc:
            parser.error(f"--trace-out: cannot open {trace_out}: {exc.strerror or exc}")
    instr = Instrumentation(tracer=tracer)
    set_default_instrumentation(instr)
    return instr


def _check_executor_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace, context: str
) -> None:
    """Reject parallel/deadline flags where they cannot be honored."""
    if args.strategy != "serial" or args.jobs is not None:
        parser.error(f"--strategy/--jobs are not supported with {context}")
    if args.time_budget_ms is not None:
        parser.error(f"--time-budget-ms is not supported with {context}")


def _cmd_query(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    graph = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    stats = compute_statistics(graph)
    print(
        f"{args.dataset}: |V|={stats.num_vertices} |E|={stats.num_edges} "
        f"|Sigma|={stats.num_labels} avg_deg={stats.average_degree:.2f}"
    )
    queries = list(query_set(graph, args.edges, args.queries, seed=args.seed))

    if args.solver in VARIANTS:
        config = variant_config(
            args.solver,
            args.k,
            run_phase2=not args.no_phase2,
            time_budget_ms=args.time_budget_ms,
            objective=args.objective,
        )
        summary = run_executor_batch(
            graph,
            queries,
            config,
            strategy=args.strategy,
            jobs=args.jobs,
            label=args.solver,
        )
    else:
        _check_executor_flags(parser, args, f"baseline {args.solver}")
        if args.objective != "vertex":
            parser.error(
                f"--objective is not supported with baseline {args.solver} "
                "(baselines optimize the paper's vertex coverage)"
            )
        if args.solver == "COM":
            solver = com_solver(args.k, seed=args.seed)
        elif args.solver == "FIRSTK":
            solver = first_k_solver(args.k)
        else:
            solver = random_start_solver(args.k, seed=args.seed)
        summary = run_batch(graph, queries, solver, label=args.solver)

    print(render_table(SUMMARY_HEADERS, [summary_row(summary)]))
    if args.solver in VARIANTS:
        hits = summary.cache_hits
        print(f"query cache: {hits} hits, {len(summary) - hits} misses")
        if summary.any_deadline_exhausted:
            print(
                f"note: some queries were truncated by the "
                f"{args.time_budget_ms:g} ms time budget"
            )
    return 0


def _cmd_datasets() -> int:
    rows = []
    for name in dataset_names():
        p = get_profile(name)
        rows.append(
            [
                name,
                p.num_vertices,
                p.num_edges,
                p.num_labels,
                f"{p.avg_degree:.2f}",
                p.topology,
                p.label_scheme,
                f"{p.bench_scale:g}",
            ]
        )
    print(
        render_table(
            ["dataset", "|V|", "|E|", "|Sigma|", "avg_deg", "topology", "labels", "bench_scale"],
            rows,
        )
    )
    return 0


def _cmd_schedule(scans: int) -> int:
    rows = [
        [t + 1, f"{alpha:.4f}", f"{gamma:.4f}"]
        for t, (alpha, gamma) in enumerate(alpha_gamma_schedule(scans))
    ]
    print(render_table(["scan t", "alpha_t", "gamma_t (guarantee)"], rows))
    return 0


def _cmd_serve(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    instr: Optional[Instrumentation],
) -> int:
    """Load the catalog, bind the server, and serve until SIGTERM/SIGINT."""
    from repro.exceptions import ReproError
    from repro.service import (
        MultiWorkerServer,
        QueryService,
        ServiceServer,
        build_catalog,
    )

    if not args.dataset and not args.graph:
        parser.error("serve requires at least one --dataset or --graph")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.calibration_file is not None and args.workers > 1:
        # Calibration state lives in the answering process; the pre-forked
        # workers each hold their own, and the parent catalog never answers.
        parser.error("--calibration-file requires the single-process server (--workers 1)")
    if args.plan_cache_file is not None and args.workers > 1:
        # Same process-locality argument: plan caches live on each worker's
        # own index caches, not the parent's.
        parser.error("--plan-cache-file requires the single-process server (--workers 1)")
    quota_rate = quota_burst = None
    if args.client_quota is not None:
        rate_text, _, burst_text = args.client_quota.partition(":")
        try:
            quota_rate = float(rate_text)
            quota_burst = float(burst_text) if burst_text else None
        except ValueError:
            parser.error(f"--client-quota must be RATE or RATE:BURST, got {args.client_quota!r}")
    config_kwargs = {}
    if args.query_cache_size is not None:
        # Only override when asked: DSQLConfig's default (128) is the
        # documented serving default, while an explicit None would mean
        # "unbounded" — not a CLI-reachable state.
        config_kwargs["query_cache_size"] = args.query_cache_size
    if args.work_unit_rate is not None:
        config_kwargs["work_unit_rate"] = args.work_unit_rate
    config = DSQLConfig(
        k=args.k,
        time_budget_ms=args.time_budget_ms,
        objective=args.objective,
        auto_time_budget=args.auto_time_budget,
        **config_kwargs,
    )
    # The admission-mode / quota / access-log knobs, as QueryService kwargs
    # (threaded verbatim to every pre-forked worker in multi-worker mode).
    service_options = {
        "admission_mode": args.admission,
        "client_quota_rate": quota_rate,
        "client_quota_burst": quota_burst,
        "access_log": args.access_log,
    }
    if args.work_unit_budget is not None:
        service_options["work_unit_budget"] = args.work_unit_budget
    try:
        catalog, lines = build_catalog(
            datasets=args.dataset,
            graph_files=args.graph,
            default_config=config,
            instrumentation=instr,
            seed=args.seed,
        )
        if args.calibration_file is not None:
            restored = catalog.load_calibration(args.calibration_file)
            if restored:
                lines.append(f"restored cost calibration for: {', '.join(restored)}")
        if args.plan_cache_file is not None:
            warmed = catalog.load_plan_cache(args.plan_cache_file)
            lines.append(f"plan_cache.warmed={warmed}")
        if args.workers > 1:
            server = MultiWorkerServer(
                catalog,
                workers=args.workers,
                host=args.host,
                port=args.port,
                max_in_flight=args.max_in_flight,
                max_queue=args.max_queue,
                retry_after_s=args.retry_after_s,
                service_options=service_options,
            ).start()
        else:
            service = QueryService(
                catalog,
                max_in_flight=args.max_in_flight,
                max_queue=args.max_queue,
                retry_after_s=args.retry_after_s,
                **service_options,
            )
            server = ServiceServer(service, host=args.host, port=args.port)
    except ReproError as exc:
        parser.error(str(exc))
    for line in lines:
        print(line)
    server.install_signal_handlers()
    if args.workers > 1:
        print(
            f"repro service listening on {server.url} with {args.workers} workers "
            f"(merged views at {server.control_url}; SIGTERM drains gracefully)"
        )
    else:
        print(f"repro service listening on {server.url} (SIGTERM drains gracefully)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    server.close()
    if args.calibration_file is not None and args.workers == 1:
        saved = catalog.save_calibration(args.calibration_file)
        if saved:
            print(f"saved cost calibration for: {', '.join(saved)}")
    if args.plan_cache_file is not None and args.workers == 1:
        saved_plans = catalog.save_plan_cache(args.plan_cache_file)
        print(f"plan_cache.saved={saved_plans}")
    print("repro service drained")
    return 0


def _cmd_mutate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """POST one edge op or an ops-file batch to a running service."""
    import json
    from pathlib import Path

    from repro.service.client import ServiceClient, ServiceClientError

    if bool(args.edge) == bool(args.ops_file):
        parser.error("mutate requires exactly one of --edge U V or --ops-file PATH")
    client = ServiceClient(args.url)
    try:
        if args.edge:
            body = client.mutate_edge(args.graph, args.op, args.edge[0], args.edge[1])
        else:
            path = Path(args.ops_file)
            if not path.is_file():
                parser.error(f"ops file not found: {path}")
            try:
                ops = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                parser.error(f"{path} is not valid JSON: {exc}")
            if not isinstance(ops, list):
                parser.error(f"{path} must hold a JSON list of ops")
            body = client.ingest(args.graph, ops)
    except ServiceClientError as exc:
        hint = ""
        if exc.status == 409 and exc.retry_after_s is not None:
            hint = f" (retry after {exc.retry_after_s:g}s)"
        print(f"mutation failed: {exc}{hint}", file=sys.stderr)
        return 1
    print(f"{args.graph}: applied {body.get('applied')} op(s), version={body.get('version')}")
    return 0


def _cmd_estimate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Print the repro.cost estimate for a generated workload (docs/cost.md).

    With ``--execute`` each query also runs, so the table pairs every
    estimate with the engine's actual ``nodes_expanded`` and the footer
    reports the mean absolute log error plus the *measured* work-unit rate
    — the number to feed back into ``--work-unit-rate`` for auto budgets.
    """
    import math
    import time as _time

    from repro.core.dsql import DSQL

    graph = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = DSQLConfig(k=args.k)
    session = DSQL(graph, config=config)
    queries = list(query_set(graph, args.edges, args.queries, seed=args.seed))

    headers = ["query", "est units", "lower", "upper"]
    if args.execute:
        headers += ["actual", "log err", "ms"]
    rows = []
    abs_log_errs = []
    total_actual = 0
    total_ms = 0.0
    for i, query in enumerate(queries):
        estimate = session.estimate(query)
        row = [
            query.name or f"q{i}",
            f"{estimate.work_units:.1f}",
            f"{estimate.lower:.1f}",
            f"{estimate.upper:.1f}",
        ]
        if args.execute:
            start = _time.perf_counter()
            result = session.query(query)
            elapsed_ms = (_time.perf_counter() - start) * 1000.0
            actual = result.stats.nodes_expanded
            session.index_cache.cost_estimator().observe(estimate, actual)
            log_err = math.log((actual + 1.0) / (estimate.work_units + 1.0))
            abs_log_errs.append(abs(log_err))
            total_actual += actual
            total_ms += elapsed_ms
            row += [actual, f"{log_err:+.2f}", f"{elapsed_ms:.1f}"]
        rows.append(row)
    print(render_table(headers, rows))
    info = session.index_cache.cost_estimator().describe()
    print(
        f"calibration: factor {info['calibration_factor']:.3f}, "
        f"band x{info['band']:.1f}, {info['observations']} observation(s)"
    )
    if args.execute and abs_log_errs:
        rate = total_actual / total_ms if total_ms > 0 else float("nan")
        print(
            f"mean abs log error: {sum(abs_log_errs) / len(abs_log_errs):.3f}; "
            f"measured rate: {rate:.1f} work units/ms "
            f"(pass as --work-unit-rate for auto budgets)"
        )
    return 0


def _cmd_experiment(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.experiments import paper
    from repro.experiments.report import render_series, render_summaries

    if args.name != "table3":
        # Only table3's DSQL batch goes through the executor; the other
        # experiments time their solvers per-query and would silently
        # ignore (or misreport under) these flags. Same for --objective:
        # the other experiments build their own configs internally.
        _check_executor_flags(parser, args, f"experiment {args.name}")
        if args.objective != "vertex":
            parser.error(f"--objective is not supported with experiment {args.name}")

    graph = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    queries = list(query_set(graph, args.edges, args.queries, seed=args.seed))

    if args.name == "table2":
        row = paper.table2_counts(graph, queries, dataset=args.dataset)
        print(
            f"{args.dataset}: avg {row.average:.1f} embeddings, worst {row.worst}, "
            f"{row.mean_seconds * 1000:.1f} ms/query "
            f"({row.completed}/{row.total} completed)"
        )
    elif args.name == "table3":
        firstk = paper.table3_firstk(graph, queries, args.k)
        config = DSQLConfig(
            k=args.k,
            time_budget_ms=args.time_budget_ms,
            objective=args.objective,
        )
        dsql = run_executor_batch(
            graph,
            queries,
            config,
            strategy=args.strategy,
            jobs=args.jobs,
            label="DSQL",
        )
        print(render_summaries([firstk, dsql], title=f"Table 3 on {args.dataset}"))
        if dsql.any_deadline_exhausted:
            print(f"note: DSQL truncated by the {args.time_budget_ms:g} ms time budget")
    elif args.name == "table4":
        result = paper.table4_strategies(graph, queries, args.k)
        rows = [
            [o.strategy, f"{o.mean_millis:.2f}" + ("+t" if o.includes_generation else ""),
             f"{o.mean_coverage:.1f}"]
            for o in result.outcomes
        ]
        print(render_table(["strategy", "ms", "coverage"], rows))
        print(f"(t = {result.generation_millis:.1f} ms generation)")
        if result.truncated:
            print(f"note: generation truncated on {result.truncated} of {len(queries)} queries")
    elif args.name == "fig6k":
        ks = [10, 20, 30, 40, 50]
        series = paper.sweep_k(graph, queries, ks)
        print(render_series("k", ks, series))
    else:  # fig9
        out = paper.ablation(graph, queries, args.k)
        print(render_summaries(out.values(), title=f"Figure 9 ablation on {args.dataset}"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "schedule":
        return _cmd_schedule(args.scans)
    if args.command == "mutate":
        return _cmd_mutate(parser, args)
    instr = _setup_observability(parser, args)
    try:
        if args.command == "query":
            rc = _cmd_query(parser, args)
        elif args.command == "estimate":
            rc = _cmd_estimate(parser, args)
        elif args.command == "serve":
            return _cmd_serve(parser, args, instr)
        else:
            rc = _cmd_experiment(parser, args)
        if instr is not None:
            print(counters_line(instr.metrics))
        return rc
    finally:
        if instr is not None:
            set_default_instrumentation(None)
            instr.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
