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
  write surface, ``POST /v1/graphs/{g}/edges`` and ``/v1/graphs/{g}/ingest``.
  All four parsers run from one :class:`FieldSpec` table per endpoint
  (``QUERY_SPEC``, ``BATCH_SPEC``, ``EDGE_SPEC``, ``INGEST_SPEC``);
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
from typing import Dict, Iterable, Optional, Tuple

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

    # Not a field: perfbench harness 1.0 reads it and passes it on to
    # ``CatalogEntry.request_config``, which ignores it.
    use_compression = None


@dataclass(frozen=True)
class MutationRequest:
    """A validated mutation payload (``/edges`` or ``/ingest``); the graph
    name comes from the request path, not the body."""

    graph: str
    ops: Tuple[Tuple, ...]

    # Not a field: perfbench harness 1.0 reads it and passes it on to
    # ``CatalogEntry.mutate``, which ignores it.
    compaction_threshold = None


@dataclass(frozen=True)
class BatchRequest:
    """A validated ``POST /v1/batch`` payload."""

    graph: str
    queries: Tuple[QueryGraph, ...]
    k: Optional[int] = None
    alpha: Optional[float] = None
    time_budget_ms: Optional[float] = None
    objective: Optional[str] = None


# ----------------------------------------------------------------------
# Body / query-graph codecs
# ----------------------------------------------------------------------
def _reject_unknown(payload: Dict[str, object], allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(payload).difference(allowed))
    if unknown:
        raise ServiceError(
            400,
            "unknown_field",
            f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )


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
# Request fields: one table per endpoint, one row per body field
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FieldSpec:
    """One body field of one endpoint, declared once.

    A parser checks the rows in order (so row order is the order in which an
    endpoint reports errors) with the checker :data:`_CHECKERS` holds for
    ``kind``, against ``bound`` (a minimum, a length limit or the accepted
    values), raising ``code``. An optional field that is absent or ``null``
    is ``None``; a ``required`` field is checked either way.
    ``config`` is the ``DSQLConfig`` field the value overrides; ``client``
    is whether ``ServiceClient`` sends the field.
    """

    name: str
    kind: str
    code: str = "invalid_request"
    bound: object = None
    required: bool = False
    config: Optional[str] = None
    client: bool = True

    def refuse(self, what: str) -> ServiceError:
        return ServiceError(400, self.code, f"{self.name!r} {what}")


def _check_str(field: FieldSpec, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise field.refuse("must be a non-empty string")
    return value


def _check_int(field: FieldSpec, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise field.refuse("must be an integer")
    if value < field.bound:
        raise field.refuse(f"must be >= {field.bound}, got {value}")
    return value


def _check_number(field: FieldSpec, value: object) -> float:
    """A ``number`` is at least its bound, a ``positive`` one above it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise field.refuse("must be a number")
    if field.kind == "positive" and value <= field.bound:
        raise field.refuse(f"must be positive, got {value}")
    if value < field.bound:
        raise field.refuse(f"must be >= {field.bound}, got {value}")
    return float(value)


def _check_choice(field: FieldSpec, value: object) -> str:
    if not isinstance(value, str) or value not in field.bound:
        raise field.refuse(f"must be one of {list(field.bound)}, got {value!r}")
    return value


def _check_vertex(field: FieldSpec, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < field.bound:
        raise field.refuse("must be a non-negative vertex id")
    return value


def _check_list(field: FieldSpec, value: object) -> list:
    if not isinstance(value, list) or not value:
        raise field.refuse("must be a non-empty list")
    if len(value) > field.bound:
        raise field.refuse(f"has {len(value)} entries; the limit is {field.bound}")
    return value


def _check_queries(field: FieldSpec, value: object) -> Tuple[QueryGraph, ...]:
    return tuple(
        query_graph_from_json(q, where=f"queries[{i}]")
        for i, q in enumerate(_check_list(field, value))
    )


def _check_ops(field: FieldSpec, value: object) -> Tuple[Tuple, ...]:
    """Each op is ``["add_vertex", label]``, ``["add_edge", u, v]`` or
    ``["remove_edge", u, v]``."""
    ops = []
    for i, raw in enumerate(_check_list(field, value)):
        kind = raw[0] if isinstance(raw, (list, tuple)) and raw else None
        if kind == "add_vertex":
            shape = "['add_vertex', label] with a non-empty string label"
            valid = len(raw) == 2 and isinstance(raw[1], str) and raw[1] != ""
        elif kind in MUTATION_OP_KINDS:
            shape = f"['{kind}', u, v] with non-negative vertex ids"
            valid = len(raw) == 3 and not any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in raw[1:]
            )
        else:
            shape = f"a list starting with one of {list(MUTATION_OP_KINDS)}"
            valid = False
        if not valid:
            raise ServiceError(400, field.code, f"ops[{i}] must be {shape}")
        ops.append(tuple(raw))
    return tuple(ops)


_CHECKERS = {
    "str": _check_str,
    "query": lambda field, value: query_graph_from_json(value, where=field.name),
    "queries": _check_queries,
    "int": _check_int,
    "number": _check_number,
    "positive": _check_number,
    "choice": _check_choice,
    "vertex": _check_vertex,
    "ops": _check_ops,
}

# The tables. Weighted-vertex requests use the server-side degree-derived
# weights (``1 + degree(v)``): per-vertex weight tables never cross the wire,
# being graph-sized, and the catalog owns the graphs.
_GRAPH = FieldSpec("graph", "str", required=True)
_OVERRIDES = (
    FieldSpec("k", "int", bound=1, config="k"),
    FieldSpec("alpha", "number", bound=0, config="alpha"),
    FieldSpec("time_budget_ms", "positive", bound=0, config="time_budget_ms"),
)
_OBJECTIVE = FieldSpec(
    "objective", "choice", "invalid_objective", bound=tuple(sorted(OBJECTIVE_NAMES)),
    config="objective",
)
QUERY_SPEC = (
    _GRAPH, FieldSpec("query", "query", "invalid_query", required=True), *_OVERRIDES, _OBJECTIVE
)
BATCH_SPEC = (
    FieldSpec("queries", "queries", bound=MAX_BATCH_QUERIES, required=True),
    _GRAPH,
    *_OVERRIDES,
    _OBJECTIVE,
)
# The mutation bodies: the graph is named by the request path.
EDGE_SPEC = (
    FieldSpec("op", "choice", "invalid_mutation", bound=("add", "remove"), required=True),
    FieldSpec("u", "vertex", "invalid_mutation", bound=0, required=True),
    FieldSpec("v", "vertex", "invalid_mutation", bound=0, required=True),
)
INGEST_SPEC = (
    FieldSpec("ops", "ops", "invalid_mutation", bound=MAX_INGEST_OPS, required=True),
    # Checked and dropped: perfbench harness 1.0 still sends it; nothing reads it.
    FieldSpec("compaction_threshold", "int", bound=1, client=False),
)


def _parse(
    payload: Dict[str, object], spec: Tuple[FieldSpec, ...], where: str
) -> Dict[str, object]:
    """``{field name: parsed value}`` of a body checked against ``spec``."""
    _reject_unknown(payload, [field.name for field in spec], where)
    values = {}
    for field in spec:
        value = payload.get(field.name)
        if value is not None or field.required:
            value = _CHECKERS[field.kind](field, value)
        values[field.name] = value
    return values


def config_overrides(request, spec: Tuple[FieldSpec, ...]) -> Dict[str, object]:
    """A parsed read's ``DSQLConfig`` overrides, as keywords of
    :meth:`~repro.service.catalog.CatalogEntry.request_config`."""
    return {field.config: getattr(request, field.name) for field in spec if field.config}


def parse_query_request(payload: Dict[str, object]) -> QueryRequest:
    """Validate a ``POST /v1/query`` body (see ``docs/service.md``)."""
    return QueryRequest(**_parse(payload, QUERY_SPEC, "query request"))


def parse_batch_request(payload: Dict[str, object]) -> BatchRequest:
    """Validate a ``POST /v1/batch`` body (see ``docs/service.md``)."""
    return BatchRequest(**_parse(payload, BATCH_SPEC, "batch request"))


def parse_edge_mutation(graph: str, payload: Dict[str, object]) -> MutationRequest:
    """Validate a ``POST /v1/graphs/{g}/edges`` body: one edge op.

    ``{"op": "add" | "remove", "u": int, "v": int}`` — range and self-loop
    checks are the graph's own (they depend on live vertex count) and
    surface as 400 ``invalid_mutation`` from the catalog.
    """
    values = _parse(payload, EDGE_SPEC, "edge mutation")
    return MutationRequest(graph, ((f"{values['op']}_edge", values["u"], values["v"]),))


def parse_ingest_request(graph: str, payload: Dict[str, object]) -> MutationRequest:
    """Validate a ``POST /v1/graphs/{g}/ingest`` body: a mutation batch,
    applied in order as *one* write (one cache-repair pass, one lock hold)."""
    return MutationRequest(graph, _parse(payload, INGEST_SPEC, "ingest request")["ops"])


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
    pair stamped on memo entries and sent with every worker-pool chunk, so
    a client can correlate a mutation with subsequent answers and metrics.
    """
    body: Dict[str, object] = {
        "graph": graph,
        "applied": summary.applied,
        "compacted": False,  # perfbench harness 1.0 reads the key
        "version": list(summary.version) if summary.version is not None else None,
    }
    if elapsed_ms is not None:
        body["elapsed_ms"] = elapsed_ms
    return body
