"""Stdlib (``urllib``) client for the repro query service.

Used by the test suite and the ``repro-dsql mutate`` command; it is also
the reference for what a real client must handle: JSON bodies both ways,
the ``{"error": {...}}`` failure shape, and the ``Retry-After`` header on
429 rejections.

Example::

    from repro.graph.query_graph import QueryGraph
    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8707")
    body = client.query("dblp", QueryGraph(["A", "B"], [(0, 1)]), k=10)
    print(body["coverage"], body["deadline_exhausted"])
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.exceptions import ReproError
from repro.graph.labeled_graph import LabeledGraph
from repro.service.schemas import query_graph_to_json

QueryLike = Union[LabeledGraph, Dict[str, object]]


class ServiceClientError(ReproError):
    """An HTTP-level failure, carrying the service's typed error body.

    ``status`` is the HTTP status (``None`` when the server was
    unreachable); ``code``/``message`` mirror the body's ``error`` object;
    ``retry_after_s`` is parsed from the ``Retry-After`` header on 429.
    """

    def __init__(
        self,
        status: Optional[int],
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


def _encode_query(query: QueryLike) -> Dict[str, object]:
    if isinstance(query, LabeledGraph):
        return query_graph_to_json(query)
    return dict(query)


class ServiceClient:
    """Minimal blocking client over :mod:`urllib.request`.

    ``client_id`` is sent as the ``X-Client-Id`` header on every request;
    servers running per-client quotas use it as the token-bucket key. A
    quota rejection surfaces as :class:`ServiceClientError` with status
    429 and ``code == "quota_exceeded"`` (this client should slow down),
    distinct from ``code == "overloaded"`` (the whole service is shedding
    load) — both carry ``retry_after_s``.
    """

    def __init__(
        self, base_url: str, timeout: float = 60.0, client_id: Optional[str] = None
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id

    # -- endpoints -----------------------------------------------------
    def query(
        self,
        graph: str,
        query: QueryLike,
        k: Optional[int] = None,
        alpha: Optional[float] = None,
        time_budget_ms: Optional[float] = None,
        objective: Optional[str] = None,
        use_compression: Optional[bool] = None,
    ) -> Dict[str, object]:
        """``POST /v1/query``; returns the response body (raises on non-200)."""
        payload: Dict[str, object] = {"graph": graph, "query": _encode_query(query)}
        if k is not None:
            payload["k"] = k
        if alpha is not None:
            payload["alpha"] = alpha
        if time_budget_ms is not None:
            payload["time_budget_ms"] = time_budget_ms
        if objective is not None:
            payload["objective"] = objective
        if use_compression is not None:
            payload["use_compression"] = use_compression
        return self._call("POST", "/v1/query", payload)

    def batch(
        self,
        graph: str,
        queries: Iterable[QueryLike],
        k: Optional[int] = None,
        alpha: Optional[float] = None,
        time_budget_ms: Optional[float] = None,
        strategy: Optional[str] = None,
        jobs: Optional[int] = None,
        objective: Optional[str] = None,
        use_compression: Optional[bool] = None,
    ) -> Dict[str, object]:
        """``POST /v1/batch``; returns the batch body with ``results`` in order."""
        payload: Dict[str, object] = {
            "graph": graph,
            "queries": [_encode_query(q) for q in queries],
        }
        if k is not None:
            payload["k"] = k
        if alpha is not None:
            payload["alpha"] = alpha
        if time_budget_ms is not None:
            payload["time_budget_ms"] = time_budget_ms
        if strategy is not None:
            payload["strategy"] = strategy
        if jobs is not None:
            payload["jobs"] = jobs
        if objective is not None:
            payload["objective"] = objective
        if use_compression is not None:
            payload["use_compression"] = use_compression
        return self._call("POST", "/v1/batch", payload)

    def mutate_edge(self, graph: str, op: str, u: int, v: int) -> Dict[str, object]:
        """``POST /v1/graphs/{graph}/edges``: one edge ``"add"``/``"remove"``.

        Returns ``{"applied", "compacted", "version", ...}``; a busy graph
        surfaces as :class:`ServiceClientError` with status 409 and
        ``retry_after_s`` set, a read-only deployment as status 501.
        """
        path = f"/v1/graphs/{urllib.parse.quote(graph, safe='')}/edges"
        return self._call("POST", path, {"op": op, "u": u, "v": v})

    def ingest(
        self,
        graph: str,
        ops: Iterable[Sequence[object]],
        compaction_threshold: Optional[int] = None,
    ) -> Dict[str, object]:
        """``POST /v1/graphs/{graph}/ingest``: a mutation batch as one write.

        ``ops`` entries are ``["add_vertex", label]``, ``["add_edge", u, v]``
        or ``["remove_edge", u, v]``, applied in order.
        """
        payload: Dict[str, object] = {"ops": [list(op) for op in ops]}
        if compaction_threshold is not None:
            payload["compaction_threshold"] = compaction_threshold
        path = f"/v1/graphs/{urllib.parse.quote(graph, safe='')}/ingest"
        return self._call("POST", path, payload)

    def healthz(self) -> Dict[str, object]:
        """``GET /healthz``; returns the body even for 503 (draining)."""
        return self._call("GET", "/healthz", None, pass_through_statuses=(503,))

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``: the registry snapshot plus catalog facts."""
        return self._call("GET", "/metrics", None)

    # -- plumbing ------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]],
        pass_through_statuses: tuple = (),
    ) -> Dict[str, object]:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = {}
            if exc.code in pass_through_statuses and body:
                return body
            error = body.get("error", {}) if isinstance(body, dict) else {}
            retry_after = exc.headers.get("Retry-After")
            raise ServiceClientError(
                exc.code,
                str(error.get("code", "http_error")),
                str(error.get("message", raw[:200])),
                retry_after_s=float(retry_after) if retry_after else None,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceClientError(None, "unreachable", str(exc.reason)) from None
