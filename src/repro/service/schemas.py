"""Wire format of the query service: request/response JSON and typed errors.

Everything that crosses the HTTP boundary is defined here so the transport
layer (:mod:`repro.service.server`), the client
(:mod:`repro.service.client`), and the tests share one source of truth:

* :class:`ServiceError` — an exception carrying an HTTP status, a stable
  machine-readable ``code``, and a human message; its :meth:`~ServiceError.
  to_body` form is the *only* error body shape the service emits.
* ``parse_query_request`` / ``parse_batch_request`` — strict validators for
  the ``POST /v1/query`` and ``POST /v1/batch`` payloads. Strict means
  unknown fields are rejected (a typoed ``"tiem_budget_ms"`` must fail
  loudly, not silently fall back to the default).
* ``parse_edge_mutation`` / ``parse_ingest_request`` — validators for the
  write surface, ``POST /v1/graphs/{g}/edges`` and ``/v1/graphs/{g}/ingest``;
  ``mutation_to_json`` encodes the resulting
  :class:`~repro.graph.labeled_graph.MutationSummary`.
* ``query_graph_from_json`` / ``query_graph_to_json`` — the round-trippable
  query-graph encoding ``{"labels": [...], "edges": [[u, v], ...]}``;
  structural validation (non-empty, connected) is delegated to
  :class:`~repro.graph.query_graph.QueryGraph` and surfaced as a 400.
* ``result_to_json`` — the response encoding of a
  :class:`~repro.core.result.DSQResult`, which is ``DSQResult.to_dict()``
  plus the serving envelope (graph name, elapsed time, and a top-level
  ``deadline_exhausted`` flag per the DESIGN §6.2 caveat: a deadline trip is
  a *successful* truncated answer, HTTP 200, that forfeits the paper's
  Theorem-3 optimality claims).

See ``docs/service.md`` for the full endpoint reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.coverage.objectives import OBJECTIVE_NAMES
from repro.exceptions import GraphError, QueryError, ReproError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph

MAX_BODY_BYTES = 8 << 20
"""Request bodies above this size are rejected with 413 before parsing."""

MAX_BATCH_QUERIES = 4096
"""Upper bound on ``/v1/batch`` fan-out (one request must stay bounded)."""

MAX_INGEST_OPS = 100_000
"""Upper bound on ``/v1/graphs/{g}/ingest`` batch size per request."""

MUTATION_OP_KINDS = ("add_vertex", "add_edge", "remove_edge")
"""Op kinds accepted by the ingest endpoint, in wire order."""

BATCH_STRATEGIES = ("serial", "thread")
"""Batch strategies the service accepts.

The ``process`` strategy of :class:`~repro.parallel.executor.BatchExecutor`
is deliberately excluded: forking from a multi-threaded HTTP server can
deadlock in the children (only the forking thread survives the fork while
locks keep their state), so the service offers the fork-free subset.
"""


class ServiceError(ReproError):
    """A request failure with an HTTP status and a stable error code.

    Raised anywhere between parsing and answering; the transport layer maps
    it to a response with status :attr:`status` and body :meth:`to_body`.
    ``retry_after_s`` is set only for 429 rejections and is also surfaced as
    the standard ``Retry-After`` header.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s

    def to_body(self) -> Dict[str, object]:
        """The JSON error body: ``{"error": {"code": ..., "message": ...}}``."""
        error: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.retry_after_s is not None:
            error["retry_after_s"] = self.retry_after_s
        return {"error": error}


@dataclass(frozen=True)
class QueryRequest:
    """A validated ``POST /v1/query`` payload."""

    graph: str
    query: QueryGraph
    k: Optional[int] = None
    alpha: Optional[float] = None
    time_budget_ms: Optional[float] = None
    objective: Optional[str] = None
    use_compression: Optional[bool] = None


@dataclass(frozen=True)
class MutationRequest:
    """A validated mutation payload (``/edges`` or ``/ingest``); the graph
    name comes from the request path, not the body."""

    graph: str
    ops: Tuple[Tuple, ...]
    compaction_threshold: Optional[int] = None


@dataclass(frozen=True)
class BatchRequest:
    """A validated ``POST /v1/batch`` payload."""

    graph: str
    queries: Tuple[QueryGraph, ...]
    k: Optional[int] = None
    alpha: Optional[float] = None
    time_budget_ms: Optional[float] = None
    strategy: str = "serial"
    jobs: Optional[int] = None
    objective: Optional[str] = None
    use_compression: Optional[bool] = None


# ----------------------------------------------------------------------
# Field-level validation helpers
# ----------------------------------------------------------------------
def _reject_unknown(payload: Dict[str, object], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ServiceError(
            400,
            "unknown_field",
            f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )


def _require_str(payload: Dict[str, object], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise ServiceError(400, "invalid_request", f"{name!r} must be a non-empty string")
    return value


def _optional_int(payload: Dict[str, object], name: str, minimum: int) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(400, "invalid_request", f"{name!r} must be an integer")
    if value < minimum:
        raise ServiceError(400, "invalid_request", f"{name!r} must be >= {minimum}, got {value}")
    return value


def _optional_number(payload: Dict[str, object], name: str, positive: bool) -> Optional[float]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(400, "invalid_request", f"{name!r} must be a number")
    if positive and value <= 0:
        raise ServiceError(400, "invalid_request", f"{name!r} must be positive, got {value}")
    if not positive and value < 0:
        raise ServiceError(400, "invalid_request", f"{name!r} must be >= 0, got {value}")
    return float(value)


def _optional_bool(payload: Dict[str, object], name: str) -> Optional[bool]:
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, bool):
        raise ServiceError(400, "invalid_request", f"{name!r} must be a boolean")
    return value


def _optional_objective(payload: Dict[str, object]) -> Optional[str]:
    """Validate the ``objective`` field against the registry (typed 400).

    Weighted-vertex requests use the server-side *degree-derived* weights
    (``1 + degree(v)``): explicit per-vertex weight tables do not cross the
    wire — they are graph-sized, and the catalog owns the graphs.
    """
    value = payload.get("objective")
    if value is None:
        return None
    if not isinstance(value, str) or value not in OBJECTIVE_NAMES:
        raise ServiceError(
            400,
            "invalid_objective",
            f"'objective' must be one of {sorted(OBJECTIVE_NAMES)}, got {value!r}",
        )
    return value


# ----------------------------------------------------------------------
# Body / query-graph codecs
# ----------------------------------------------------------------------
def _reject_constant(token: str) -> None:
    """``NaN`` / ``Infinity`` are not JSON, and no comparison rejects a NaN."""
    raise ValueError(f"non-finite number {token}")


# One decoder for every body: ``json.loads(..., parse_constant=)`` builds one per call.
_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json_body(raw: bytes) -> Dict[str, object]:
    """Decode a request body into a JSON object (400 on anything else)."""
    if len(raw) > MAX_BODY_BYTES:
        raise ServiceError(
            413,
            "request_too_large",
            f"request body of {len(raw)} bytes exceeds the {MAX_BODY_BYTES} byte limit",
        )
    try:
        payload = _STRICT_JSON.decode(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ServiceError(400, "invalid_json", f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError(
            400, "invalid_json", f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def query_graph_to_json(query: LabeledGraph) -> Dict[str, object]:
    """Encode a query graph as ``{"labels": [...], "edges": [[u, v], ...]}``."""
    return {
        "labels": [str(label) for label in query.labels],
        "edges": [[u, v] for u, v in sorted(query.edges())],
    }


def query_graph_from_json(obj: object, where: str = "query") -> QueryGraph:
    """Decode and *validate* a query graph (400 ``invalid_query`` on failure)."""
    if not isinstance(obj, dict):
        raise ServiceError(400, "invalid_query", f"{where} must be a JSON object")
    _reject_unknown(obj, ("labels", "edges", "name"), where)
    labels = obj.get("labels")
    edges = obj.get("edges", [])
    if not isinstance(labels, list) or not labels:
        raise ServiceError(400, "invalid_query", f"{where}.labels must be a non-empty list")
    if not isinstance(edges, list):
        raise ServiceError(400, "invalid_query", f"{where}.edges must be a list of [u, v] pairs")
    pairs = []
    for i, edge in enumerate(edges):
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or any(isinstance(e, bool) or not isinstance(e, int) for e in edge)
        ):
            raise ServiceError(
                400, "invalid_query", f"{where}.edges[{i}] must be a pair of vertex ids"
            )
        pairs.append((edge[0], edge[1]))
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ServiceError(400, "invalid_query", f"{where}.name must be a string")
    try:
        return QueryGraph(labels, pairs, name=name)
    except (QueryError, GraphError) as exc:
        raise ServiceError(400, "invalid_query", f"{where}: {exc}") from None


# ----------------------------------------------------------------------
# Request parsers
# ----------------------------------------------------------------------
_QUERY_FIELDS = (
    "graph",
    "query",
    "k",
    "alpha",
    "time_budget_ms",
    "objective",
    "use_compression",
)
_BATCH_FIELDS = (
    "graph",
    "queries",
    "k",
    "alpha",
    "time_budget_ms",
    "strategy",
    "jobs",
    "objective",
    "use_compression",
)


def parse_query_request(payload: Dict[str, object]) -> QueryRequest:
    """Validate a ``POST /v1/query`` body (see ``docs/service.md``)."""
    _reject_unknown(payload, _QUERY_FIELDS, "query request")
    return QueryRequest(
        graph=_require_str(payload, "graph"),
        query=query_graph_from_json(payload.get("query")),
        k=_optional_int(payload, "k", minimum=1),
        alpha=_optional_number(payload, "alpha", positive=False),
        time_budget_ms=_optional_number(payload, "time_budget_ms", positive=True),
        objective=_optional_objective(payload),
        use_compression=_optional_bool(payload, "use_compression"),
    )


def parse_batch_request(payload: Dict[str, object]) -> BatchRequest:
    """Validate a ``POST /v1/batch`` body (see ``docs/service.md``)."""
    _reject_unknown(payload, _BATCH_FIELDS, "batch request")
    raw_queries = payload.get("queries")
    if not isinstance(raw_queries, list) or not raw_queries:
        raise ServiceError(400, "invalid_request", "'queries' must be a non-empty list")
    if len(raw_queries) > MAX_BATCH_QUERIES:
        raise ServiceError(
            400,
            "invalid_request",
            f"'queries' has {len(raw_queries)} entries; the limit is {MAX_BATCH_QUERIES}",
        )
    queries = tuple(
        query_graph_from_json(q, where=f"queries[{i}]") for i, q in enumerate(raw_queries)
    )
    strategy = payload.get("strategy", "serial")
    if strategy not in BATCH_STRATEGIES:
        raise ServiceError(
            400,
            "invalid_request",
            f"'strategy' must be one of {list(BATCH_STRATEGIES)}, got {strategy!r} "
            "(the fork-based 'process' strategy is not offered by the service)",
        )
    return BatchRequest(
        graph=_require_str(payload, "graph"),
        queries=queries,
        k=_optional_int(payload, "k", minimum=1),
        alpha=_optional_number(payload, "alpha", positive=False),
        time_budget_ms=_optional_number(payload, "time_budget_ms", positive=True),
        strategy=strategy,
        jobs=_optional_int(payload, "jobs", minimum=1),
        objective=_optional_objective(payload),
        use_compression=_optional_bool(payload, "use_compression"),
    )


# ----------------------------------------------------------------------
# Mutation parsers
# ----------------------------------------------------------------------
_EDGE_FIELDS = ("op", "u", "v")
_INGEST_FIELDS = ("ops", "compaction_threshold")
_EDGE_OPS = {"add": "add_edge", "remove": "remove_edge"}


def _require_vertex(payload: Dict[str, object], name: str) -> int:
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(
            400, "invalid_mutation", f"{name!r} must be a non-negative vertex id"
        )
    return value


def parse_edge_mutation(graph: str, payload: Dict[str, object]) -> MutationRequest:
    """Validate a ``POST /v1/graphs/{g}/edges`` body: one edge op.

    ``{"op": "add" | "remove", "u": int, "v": int}`` — range and self-loop
    checks are the graph's own (they depend on live vertex count) and
    surface as 400 ``invalid_mutation`` from the catalog.
    """
    _reject_unknown(payload, _EDGE_FIELDS, "edge mutation")
    op = payload.get("op")
    if op not in _EDGE_OPS:
        raise ServiceError(
            400, "invalid_mutation", f"'op' must be one of {sorted(_EDGE_OPS)}, got {op!r}"
        )
    u = _require_vertex(payload, "u")
    v = _require_vertex(payload, "v")
    return MutationRequest(graph=graph, ops=((_EDGE_OPS[op], u, v),))


def parse_ingest_request(graph: str, payload: Dict[str, object]) -> MutationRequest:
    """Validate a ``POST /v1/graphs/{g}/ingest`` body: a mutation batch.

    ``ops`` is a list of ``["add_vertex", label]``, ``["add_edge", u, v]``
    or ``["remove_edge", u, v]`` entries, applied in order as *one* write
    (single cache-repair pass, single lock acquisition). The optional
    ``compaction_threshold`` overrides the server's delta-count trigger
    for this batch only.
    """
    _reject_unknown(payload, _INGEST_FIELDS, "ingest request")
    raw_ops = payload.get("ops")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ServiceError(400, "invalid_mutation", "'ops' must be a non-empty list")
    if len(raw_ops) > MAX_INGEST_OPS:
        raise ServiceError(
            400,
            "invalid_mutation",
            f"'ops' has {len(raw_ops)} entries; the limit is {MAX_INGEST_OPS}",
        )
    ops = []
    for i, raw in enumerate(raw_ops):
        if not isinstance(raw, (list, tuple)) or not raw or raw[0] not in MUTATION_OP_KINDS:
            raise ServiceError(
                400,
                "invalid_mutation",
                f"ops[{i}] must be a list starting with one of {list(MUTATION_OP_KINDS)}",
            )
        kind = raw[0]
        if kind == "add_vertex":
            if len(raw) != 2 or not isinstance(raw[1], str) or not raw[1]:
                raise ServiceError(
                    400,
                    "invalid_mutation",
                    f"ops[{i}] must be ['add_vertex', label] with a non-empty string label",
                )
            ops.append(("add_vertex", raw[1]))
        else:
            if len(raw) != 3 or any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in raw[1:]
            ):
                raise ServiceError(
                    400,
                    "invalid_mutation",
                    f"ops[{i}] must be ['{kind}', u, v] with non-negative vertex ids",
                )
            ops.append((kind, raw[1], raw[2]))
    return MutationRequest(
        graph=graph,
        ops=tuple(ops),
        compaction_threshold=_optional_int(payload, "compaction_threshold", minimum=1),
    )


# ----------------------------------------------------------------------
# Response encoding
# ----------------------------------------------------------------------
def result_to_json(
    result, graph: str, elapsed_ms: Optional[float] = None
) -> Dict[str, object]:
    """Encode one :class:`~repro.core.result.DSQResult` as a response body.

    ``deadline_exhausted`` is lifted to the top level: a tripped
    ``time_budget_ms`` is still HTTP 200 — the embeddings are valid, the
    result is merely truncated and forfeits Theorem-3 optimality (DESIGN
    §6.2) — so clients must be able to see the flag without digging into
    ``stats``.
    """
    body = result.to_dict()
    body["graph"] = graph
    body["deadline_exhausted"] = result.stats.deadline_exhausted
    if elapsed_ms is not None:
        body["elapsed_ms"] = elapsed_ms
    return body


def mutation_to_json(
    summary, graph: str, elapsed_ms: Optional[float] = None
) -> Dict[str, object]:
    """Encode a :class:`~repro.graph.labeled_graph.MutationSummary` response.

    ``version`` is the graph's post-batch ``[epoch, delta_seq]`` — the same
    pair stamped on memo entries and worker-pool sync headers, so a
    client can correlate a mutation with subsequent answers and metrics.
    """
    body: Dict[str, object] = {
        "graph": graph,
        "applied": summary.applied,
        "compacted": summary.compacted,
        "version": list(summary.version) if summary.version is not None else None,
    }
    if elapsed_ms is not None:
        body["elapsed_ms"] = elapsed_ms
    return body
