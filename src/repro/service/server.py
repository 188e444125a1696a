"""The long-running query server: HTTP transport, routing, and drain.

Two layers, deliberately separated:

:class:`QueryService`
    Transport-free request handling. ``handle_post`` resolves the route
    once, probes the parsed JSON payload (parse, resolve the graph, price)
    and hands the probe to ``handle_query`` / ``handle_batch`` /
    ``handle_mutation``, which return response bodies; admission control,
    draining, outcome metrics, and the per-request trace span all live
    here, so the logic is directly unit-testable without a socket.
:class:`ServiceServer`
    The stdlib ``http.server.HTTPServer`` wrapper: each connection is
    handed to a reused handler thread, ``POST /v1/query`` / ``POST /v1/batch`` /
    ``POST /v1/graphs/{g}/edges`` / ``POST /v1/graphs/{g}/ingest`` /
    ``GET /healthz`` / ``GET /metrics``, JSON in and out. HTTP/1.0
    semantics (connection closed after each response) keep the drain story
    simple — no idle keep-alive connections to wait out.

Graceful drain (``SIGTERM`` or :meth:`ServiceServer.close`): stop
accepting new connections, let every in-flight request finish
(``server_close`` waits out the handler executor), then flush the trace sink.
The signal handler itself only *requests* the shutdown from a helper
thread — calling ``shutdown()`` from the thread running ``serve_forever``
(the main thread, under a signal) would deadlock.

Request outcomes land in the ``service.*`` metrics (see
``docs/observability.md``); with a tracer attached every request emits one
``service.request`` span carrying path, status, and graph.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import signal
import socket
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core.config import DSQLConfig
from repro.cost import DEFAULT_WORK_UNIT_RATE, CostEstimate
from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.exceptions import ConfigError
from repro.service.accesslog import AccessLog
from repro.service.admission import (
    DEFAULT_WORK_UNIT_BUDGET,
    ClientQuotas,
    build_admission_controller,
)
from repro.service.catalog import CatalogEntry, GraphCatalog
from repro.service.schemas import (
    MAX_BODY_BYTES,
    ServiceError,
    mutation_to_json,
    parse_batch_request,
    parse_edge_mutation,
    parse_ingest_request,
    parse_json_body,
    parse_query_request,
    result_to_json,
)

logger = logging.getLogger("repro.service")

DEFAULT_MAX_IN_FLIGHT = 8
DEFAULT_MAX_QUEUE = 32
DEFAULT_RETRY_AFTER_S = 1.0
DEFAULT_DRAIN_RATE = DEFAULT_WORK_UNIT_RATE * 1000.0
"""Assumed engine throughput in work units per *second*, used by the
cost-aware controller to turn a backlog into a ``Retry-After`` hint."""

CLIENT_ID_HEADER = "X-Client-Id"
ANONYMOUS_CLIENT = "anonymous"
"""Requests without an ``X-Client-Id`` header share one quota bucket."""

DEFAULT_MUTATION_COST = 1.0
"""Nominal admission cost of a write: mutations serialize on the graph's
writer lock anyway, so the gate only needs to count them, not price them."""

_MUTATION_PARSERS = {"edges": parse_edge_mutation, "ingest": parse_ingest_request}
"""Action suffix of ``POST /v1/graphs/{g}/<action>`` -> its body parser."""


def _outcome(status: int) -> str:
    """HTTP status -> the outcome class used in ``service.requests.*``."""
    if status < 400:
        return "ok"
    if status == 429:
        return "rejected"
    if status == 503:
        return "draining"
    if status < 500:
        return "client_error"
    return "server_error"


def _actual_work_units(body: Dict[str, object]) -> Optional[int]:
    """Pull the engine's actual charge count out of a response body.

    ``/v1/query`` bodies carry ``stats.nodes_expanded``; ``/v1/batch``
    bodies carry one stats block per result (summed here). Error bodies
    yield ``None`` — no search ran.
    """
    if not isinstance(body, dict):
        return None
    stats = body.get("stats")
    if isinstance(stats, dict) and isinstance(stats.get("nodes_expanded"), int):
        return stats["nodes_expanded"]
    results = body.get("results")
    if isinstance(results, list):
        total, seen = 0, False
        for entry in results:
            inner = entry.get("stats") if isinstance(entry, dict) else None
            if isinstance(inner, dict) and isinstance(inner.get("nodes_expanded"), int):
                total += inner["nodes_expanded"]
                seen = True
        if seen:
            return total
    return None


def _request_config(entry: CatalogEntry, request) -> DSQLConfig:
    """The entry's config under a query / batch request's overrides."""
    return entry.request_config(
        k=request.k,
        alpha=request.alpha,
        time_budget_ms=request.time_budget_ms,
        objective=request.objective,
        use_compression=request.use_compression,
    )


def _query_key(query) -> str:
    """A short stable digest of the query's canonical structure.

    Used only for correlation (access log lines, offline estimator audits)
    — never as a cache key, so truncating the digest is safe."""
    return hashlib.sha1(repr(query.canonical_key()).encode("utf-8")).hexdigest()[:16]


@dataclass
class _Probe:
    """Everything the pre-admission cost probe learned about a request.

    Built by the route's probe *before* the admission gate so the gate can
    price the request; the catalog entry, the parsed request, its config and
    its estimates carry through to the handler so nothing is resolved,
    parsed or estimated twice. Query and batch probes carry one estimate per
    query; mutation probes carry only the nominal ``cost``.
    """

    entry: CatalogEntry
    request: object
    cost: float = DEFAULT_MUTATION_COST
    config: Optional[DSQLConfig] = None
    estimates: Sequence[CostEstimate] = ()
    wire: Optional[Dict[str, object]] = None
    query_key: Optional[str] = None


class QueryService:
    """Routes parsed requests onto a :class:`~repro.service.catalog.GraphCatalog`.

    Parameters
    ----------
    catalog:
        The warm graph catalog; its instrumentation (metrics registry, and
        tracer if any) is shared by the service.
    max_in_flight, max_queue:
        Admission-control bounds (see
        :class:`~repro.service.admission.AdmissionController`).
    retry_after_s:
        The base ``Retry-After`` hint attached to 429 rejections; the
        active controller scales it by live occupancy.
    allow_mutations:
        When ``False`` the write surface (``POST /v1/graphs/{g}/edges`` and
        ``/v1/graphs/{g}/ingest``) answers 501 ``mutation_unsupported``.
        The pre-forked multi-worker front sets this: its workers serve
        private copies of the parent's graphs, and a write in one worker would be
        invisible to its siblings behind the same port.
    admission_mode:
        ``"count"`` (default, bounded concurrency + queue), ``"cost"``
        (work-unit budget priced by the :mod:`repro.cost` estimator), or
        ``"off"`` (no gate; for the admission-invariance tests).
    work_unit_budget, drain_rate:
        Cost-mode knobs: the global budget of estimated work units in
        flight, and the assumed drain throughput (units/second) behind
        ``Retry-After`` hints.
    client_quota_rate, client_quota_burst:
        When ``client_quota_rate`` is set, every client (the
        ``X-Client-Id`` header) gets a token bucket of work units refilled
        at that rate; over-quota requests answer 429 ``quota_exceeded``
        *before* touching the global gate.
    access_log:
        A path (or :class:`~repro.service.accesslog.AccessLog`) enabling
        the JSONL per-request log; closed with the service.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        identity: Optional[Dict[str, object]] = None,
        allow_mutations: bool = True,
        admission_mode: str = "count",
        work_unit_budget: float = DEFAULT_WORK_UNIT_BUDGET,
        drain_rate: float = DEFAULT_DRAIN_RATE,
        client_quota_rate: Optional[float] = None,
        client_quota_burst: Optional[float] = None,
        access_log: Optional[Union[str, Path, AccessLog]] = None,
    ) -> None:
        self.catalog = catalog
        self.allow_mutations = allow_mutations
        self.instrumentation = catalog.instrumentation
        self.admission = build_admission_controller(
            admission_mode,
            max_in_flight,
            max_queue,
            work_unit_budget=work_unit_budget,
            drain_rate=drain_rate,
            metrics=self.instrumentation.metrics,
        )
        self.quotas = (
            ClientQuotas(client_quota_rate, burst=client_quota_burst)
            if client_quota_rate is not None
            else None
        )
        if access_log is not None and not isinstance(access_log, AccessLog):
            access_log = AccessLog(access_log)
        self.access_log = access_log
        self.retry_after_s = retry_after_s
        # Who is answering: the multi-worker front (repro.service.multiworker)
        # tags each pre-forked worker so /healthz and /metrics are attributable.
        self.identity = dict(identity or {})
        self.draining = False
        self._request_ids = itertools.count()
        self._started = time.monotonic()

    # -- routing -------------------------------------------------------
    def _route(self, path: str) -> Optional[Tuple[Callable, Callable]]:
        """``(probe, handler)`` for a POST path — the one place it is resolved.

        ``probe(payload)`` parses and prices the request before any gate;
        ``handler(payload, probe)`` answers it. Per-graph routes are
        ``/v1/graphs/{g}/edges`` and ``/v1/graphs/{g}/ingest``: the graph
        name is one percent-decodable path segment (names like ``dblp@0.05``
        pass through verbatim); anything else is the caller's 404.
        """
        if path == "/v1/query":
            return self._probe_query, self.handle_query
        if path == "/v1/batch":
            return self._probe_batch, self.handle_batch
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["v1", "graphs"] and parts[2]:
            parse = _MUTATION_PARSERS.get(parts[3])
            if parse is not None:
                graph = urllib.parse.unquote(parts[2])
                return partial(self._probe_mutation, parse, graph), self.handle_mutation
        return None

    # -- pre-admission cost probes -------------------------------------
    # Parse + price a request *before* the admission gate sees it.
    # Estimation is deliberately pre-admission: it is a memoized fold over
    # the compiled plan (which answering needs anyway), and a gate that
    # cannot see a request's price cannot shed load by cost. Parse and
    # validation errors and unknown graphs raise here — an invalid request
    # must never consume quota or budget, on a read route or a write route.
    def _probe_query(self, payload: Dict[str, object]) -> _Probe:
        request = parse_query_request(payload)
        entry = self.catalog.get(request.graph)
        config = _request_config(entry, request)
        estimate = entry.estimate_cost(request.query, config)
        return _Probe(
            entry,
            request,
            cost=estimate.work_units,
            config=config,
            estimates=(estimate,),
            wire=estimate.to_wire(),
            query_key=_query_key(request.query) if self.access_log is not None else None,
        )

    def _probe_batch(self, payload: Dict[str, object]) -> _Probe:
        request = parse_batch_request(payload)
        entry = self.catalog.get(request.graph)
        config = _request_config(entry, request)
        estimates = [entry.estimate_cost(q, config) for q in request.queries]
        total = sum(e.work_units for e in estimates)
        return _Probe(
            entry,
            request,
            cost=total,
            config=config,
            estimates=estimates,
            wire={"work_units": round(total, 3), "queries": len(estimates)},
        )

    def _probe_mutation(self, parse, graph: str, payload: Dict[str, object]) -> _Probe:
        """A write's probe: nominal cost, but only for a well-formed batch
        on a known graph of a deployment that takes writes. (An endpoint out
        of range is only knowable under the write lock, and is charged.)"""
        if not self.allow_mutations:
            raise ServiceError(
                501,
                "mutation_unsupported",
                "this deployment serves read-only graphs "
                "(pre-forked workers cannot see each other's writes); "
                "use the single-process server for mutations",
            )
        request = parse(graph, payload)
        return _Probe(self.catalog.get(graph), request)

    # -- endpoint bodies -----------------------------------------------
    def handle_query(self, payload: Dict[str, object], probe: _Probe) -> Dict[str, object]:
        """``POST /v1/query``: one diversified top-k answer."""
        entry, request, config = probe.entry, probe.request, probe.config
        start = time.perf_counter()
        result = entry.answer(request.query, config)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        entry.observe_cost(probe.estimates[0], result, config)
        body = result_to_json(result, graph=request.graph, elapsed_ms=elapsed_ms)
        body["estimated_cost"] = probe.wire
        return body

    def handle_batch(self, payload: Dict[str, object], probe: _Probe) -> Dict[str, object]:
        """``POST /v1/batch``: a query batch through the parallel executor."""
        entry, request, config = probe.entry, probe.request, probe.config
        start = time.perf_counter()
        results, report = entry.answer_batch(
            request.queries, config, strategy=request.strategy, jobs=request.jobs
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for estimate, result in zip(probe.estimates, results):
            entry.observe_cost(estimate, result, config)
        body = {
            "graph": request.graph,
            "count": len(results),
            "results": [result_to_json(r, graph=request.graph) for r in results],
            "cache_hits": sum(1 for r in results if r.from_cache),
            "any_deadline_exhausted": any(r.stats.deadline_exhausted for r in results),
            "elapsed_ms": elapsed_ms,
            "executor": {
                "strategy": report.strategy,
                "jobs": report.jobs,
                "batch": report.batch,
                "searches": report.searches,
                "chunks": report.chunks,
                "chunks_retried": report.chunks_retried,
                "per_worker": [list(row) for row in report.per_worker],
            },
        }
        body["estimated_cost"] = probe.wire
        return body

    def handle_mutation(self, payload: Dict[str, object], probe: _Probe) -> Dict[str, object]:
        """``POST /v1/graphs/{g}/edges`` (one edge add/remove) and
        ``/v1/graphs/{g}/ingest`` (a batch as one write): serialize through
        the entry, encode."""
        entry, request = probe.entry, probe.request
        start = time.perf_counter()
        if request.compaction_threshold is not None:
            summary = entry.mutate(
                request.ops, compaction_threshold=request.compaction_threshold
            )
        else:
            summary = entry.mutate(request.ops)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        metrics = self.instrumentation.metrics
        metrics.counter("service.mutations").inc()
        if summary.compacted:
            metrics.counter("service.mutations.compactions").inc()
        return mutation_to_json(summary, graph=request.graph, elapsed_ms=elapsed_ms)

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        """``GET /healthz``: liveness + live admission occupancy."""
        status = 503 if self.draining else 200
        body: Dict[str, object] = {
            "status": "draining" if self.draining else "ok",
            "graphs": self.catalog.names(),
            "objectives": sorted(OBJECTIVE_NAMES),
            "mutations_enabled": self.allow_mutations,
            "uptime_ms": (time.monotonic() - self._started) * 1000.0,
            "admission": self.admission.describe(),
        }
        if self.quotas is not None:
            body["client_quotas"] = self.quotas.describe()
        if self.identity:
            body["identity"] = dict(self.identity)
        return status, body

    def metrics_snapshot(self) -> Dict[str, object]:
        """``GET /metrics``: the full registry snapshot plus catalog facts."""
        body: Dict[str, object] = {
            "uptime_ms": (time.monotonic() - self._started) * 1000.0,
            "metrics": self.instrumentation.metrics.snapshot(),
            "catalog": self.catalog.describe(),
        }
        if self.identity:
            body["identity"] = dict(self.identity)
        return body

    # -- request lifecycle ---------------------------------------------
    def handle_post(
        self,
        path: str,
        read_payload: Callable[[], Dict[str, object]],
        headers: Optional[Dict[str, str]] = None,
        request_id: Optional[int] = None,
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """Admission-gated dispatch; returns ``(status, body, retry_after_s)``.

        The request lifecycle, in order: route, drain check, body read,
        **cost probe** (parse + estimate, so the gates can price the
        request), **per-client quota** (429 ``quota_exceeded``), **global
        admission** (429 ``overloaded``), handler, access-log line.

        Every failure mode is funneled into a :class:`ServiceError` body:
        unknown endpoint (404), draining (503), shed load (429 with
        ``Retry-After``), parse/validation errors (400/404/413), and any
        unexpected exception (500, logged with traceback, opaque body).
        """
        retry_after = None
        probe: Optional[_Probe] = None
        client = None
        if headers:
            # HTTP header names are case-insensitive; a plain dict is not.
            wanted = CLIENT_ID_HEADER.lower()
            client = next(
                (v for k, v in headers.items() if k.lower() == wanted), None
            )
        started = time.monotonic()
        try:
            route = self._route(path)
            if route is None:
                raise ServiceError(404, "unknown_endpoint", f"no such endpoint: POST {path}")
            probe_request, handler = route
            if self.draining:
                raise ServiceError(
                    503, "draining", "server is draining; not accepting new requests"
                )
            payload = read_payload()
            probe = probe_request(payload)
            if self.quotas is not None:
                quota_client = client if client else ANONYMOUS_CLIENT
                if not self.quotas.try_consume(quota_client, probe.cost):
                    self.instrumentation.metrics.counter(
                        "service.quota_rejections"
                    ).inc()
                    raise ServiceError(
                        429,
                        "quota_exceeded",
                        f"client {quota_client!r} is over its work-unit quota "
                        f"({self.quotas.rate:g} units/s, burst "
                        f"{self.quotas.burst:g}); slow down",
                        retry_after_s=max(
                            self.retry_after_s,
                            self.quotas.retry_after(quota_client, probe.cost),
                        ),
                    )
            ticket = self.admission.try_admit(probe.cost)
            if ticket is None:
                raise ServiceError(
                    429,
                    "overloaded",
                    f"at capacity ({self.admission.describe()}); retry later",
                    retry_after_s=self.admission.retry_after_hint(
                        self.retry_after_s, probe.cost
                    ),
                )
            try:
                body, status = handler(payload, probe), 200
            finally:
                self.admission.release(ticket)
        except ServiceError as exc:
            body, status, retry_after = exc.to_body(), exc.status, exc.retry_after_s
        except Exception:
            logger.exception("unhandled error serving POST %s", path)
            exc = ServiceError(500, "internal", "internal server error")
            body, status = exc.to_body(), exc.status
        if self.access_log is not None:
            self._log_access(path, status, probe, body, client, request_id, started)
        return status, body, retry_after

    def _log_access(
        self,
        path: str,
        status: int,
        probe: Optional[_Probe],
        body: Dict[str, object],
        client: Optional[str],
        request_id: Optional[int],
        started: float,
    ) -> None:
        """One JSONL line per POST; never lets a logging bug fail the request."""
        try:
            estimated = None
            if probe is not None and probe.wire is not None:
                estimated = probe.wire.get("work_units")
            self.access_log.record(
                ts_ms=time.time() * 1000.0,
                request_id=request_id if request_id is not None else self.next_request_id(),
                path=path,
                status=status,
                latency_ms=(time.monotonic() - started) * 1000.0,
                client=client,
                graph=probe.request.graph if probe is not None else None,
                query_key=probe.query_key if probe is not None else None,
                estimated_work_units=estimated,
                actual_work_units=_actual_work_units(body),
            )
        except Exception:  # pragma: no cover - defensive
            logger.exception("failed to write access-log record for POST %s", path)

    def observe_request(self, method: str, path: str, status: int, elapsed_ms: float) -> None:
        """Outcome counters for every request; latency histogram for /v1/*."""
        metrics = self.instrumentation.metrics
        metrics.counter("service.requests").inc()
        metrics.counter(f"service.requests.{_outcome(status)}").inc()
        if path.startswith("/v1/"):
            metrics.histogram("service.latency_ms").observe(elapsed_ms)

    def next_request_id(self) -> int:
        return next(self._request_ids)

    # -- drain ----------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting new work; in-flight requests run to completion."""
        self.draining = True

    def close(self) -> None:
        """Flush instrumentation (the trace sink, when one is attached) and
        the access log."""
        self.instrumentation.close()
        if self.access_log is not None:
            self.access_log.close()


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
_MAX_HANDLER_THREADS = 256
"""Not a knob: admission is what refuses load, so the ceiling sits far above
what the gates let in (default 8 executing + 32 queued) plus the threads
momentarily writing 429s; past it a connection waits, in accept order."""


class _ServiceHTTPServer(HTTPServer):
    """Accepts on the serve loop's thread, answers on reused handler threads.

    The executor starts a thread only when none is idle and keeps it for the
    server's life; ``server_close`` is the drain join — it returns once every
    accepted connection is answered and every handler thread has exited. The
    handler's read timeout bounds how long a stuck client can delay it.
    """

    allow_reuse_address = True
    # SO_REUSEPORT lets N pre-forked workers bind the *same* port and have
    # the kernel load-balance incoming connections across them — the
    # multi-worker front (repro.service.multiworker) flips this on.
    reuse_port = False

    def __init__(self, *args, **kwargs) -> None:
        self._handlers = ThreadPoolExecutor(_MAX_HANDLER_THREADS, thread_name_prefix="repro-serve")
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        self._handlers.submit(self._serve_connection, request, client_address)

    def _serve_connection(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._handlers.shutdown(wait=True)

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def handle_error(self, request, client_address):  # pragma: no cover - client aborts
        logger.warning("error handling connection from %s", client_address, exc_info=True)


class _ServiceHandler(BaseHTTPRequestHandler):
    """One HTTP connection; ``service`` is bound on a per-server subclass."""

    service: QueryService
    server_version = "repro-service"
    # Bound the read of a request so a silent client cannot pin a handler
    # thread forever (which would also stall the drain join).
    timeout = 30.0

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing ------------------------------------------------------
    def _send_json(
        self, status: int, body: Dict[str, object], retry_after: Optional[float] = None
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.end_headers()
        self.wfile.write(data)

    def _read_payload(self) -> Dict[str, object]:
        # Judged from the declaration, body unread: ``read(-1)`` reads to EOF
        # and an oversized body would be buffered whole before its 413.
        try:
            length = int(self.headers.get("Content-Length"))
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            raise ServiceError(
                400, "invalid_request", "POST requires a non-negative integer Content-Length"
            )
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413,
                "request_too_large",
                f"declared body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit",
            )
        return parse_json_body(self.rfile.read(length))

    # -- methods -------------------------------------------------------
    def do_GET(self) -> None:
        service = self.service
        path = self.path.split("?", 1)[0]
        start = time.monotonic()
        if path == "/healthz":
            status, body = service.healthz()
        elif path == "/metrics":
            status, body = 200, service.metrics_snapshot()
        else:
            error = ServiceError(404, "unknown_endpoint", f"no such endpoint: GET {path}")
            status, body = error.status, error.to_body()
        service.observe_request("GET", path, status, (time.monotonic() - start) * 1000.0)
        self._send_json(status, body)

    def do_POST(self) -> None:
        service = self.service
        path = self.path.split("?", 1)[0]
        start = time.monotonic()
        request_id = service.next_request_id()
        client = self.headers.get(CLIENT_ID_HEADER)
        with service.instrumentation.span(
            "service.request", query_id=None, request_id=request_id, path=path
        ) as span:
            status, body, retry_after = service.handle_post(
                path,
                self._read_payload,
                headers=None if client is None else {CLIENT_ID_HEADER: client},
                request_id=request_id,
            )
            span["status"] = status
        elapsed_ms = (time.monotonic() - start) * 1000.0
        service.observe_request("POST", path, status, elapsed_ms)
        self._send_json(status, body, retry_after)


class ServiceServer:
    """Owns the listening socket, the serve loop, and the drain sequence.

    Usage (in-process, e.g. tests and the load benchmark)::

        server = ServiceServer(service, port=0).start()
        ... requests against server.url ...
        server.close()   # drain: finish in-flight, flush traces

    or blocking (the CLI)::

        server.install_signal_handlers()
        server.serve_forever()   # returns once SIGTERM triggers the drain
        server.close()
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> None:
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ConfigError("SO_REUSEPORT is not available on this platform")
        self.service = service
        handler = type("BoundServiceHandler", (_ServiceHandler,), {"service": service})
        server_cls = type(
            "BoundServiceHTTPServer", (_ServiceHTTPServer,), {"reuse_port": reuse_port}
        )
        self._http = server_cls((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._close_lock = threading.Lock()
        self._closing = False
        self._closed = threading.Event()

    # -- addresses -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port is the real one when 0 was asked."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- serving -------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread until the drain starts."""
        self._serving = True
        self._http.serve_forever(poll_interval=0.1)

    def start(self) -> "ServiceServer":
        """Run the accept loop on a background thread (in-process serving)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-service", daemon=True,
        )
        self._thread.start()
        return self

    # -- drain ----------------------------------------------------------
    def request_shutdown(self) -> None:
        """Signal-safe drain trigger: runs :meth:`close` on a helper thread.

        Needed because a signal handler executes on the main thread — the
        very thread blocked in ``serve_forever`` — and ``shutdown()`` would
        deadlock waiting for itself.
        """
        threading.Thread(target=self.close, name="repro-service-drain", daemon=True).start()

    def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush traces.

        Idempotent and thread-safe; late callers block until the first
        drain completes.
        """
        with self._close_lock:
            first = not self._closing
            self._closing = True
        if not first:
            self._closed.wait()
            return
        logger.info("drain: stopping accept loop")
        self.service.begin_drain()
        if self._serving:
            self._http.shutdown()
        # Returns once every handed-over connection has been answered.
        self._http.server_close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join()
        self.service.close()
        logger.info("drain: complete")
        self._closed.set()

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)) -> Dict:
        """Route SIGTERM/SIGINT to the graceful drain; returns prior handlers."""
        previous = {}
        for sig in signals:
            previous[sig] = signal.signal(sig, lambda *_: self.request_shutdown())
        return previous
