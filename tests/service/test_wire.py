"""The HTTP transport at the byte level: what a hand-read request head must
answer to, and what a reply is, held by counts.

The fuzz sends generated raw requests over a real socket — odd request
lines, odd header sets, every kind of ``Content-Length``, truncated heads,
heads trickled one byte at a time, bodies split over segments — and checks
that every reply is one well-formed HTTP/1.0 response whose status and error
code are a row of docs/service.md's status table, that nothing answers 500,
and that a refused request leaves the admission gate and the client quotas
as it found them.

The body fuzz is generated from the ``FieldSpec`` tables: every row of every
endpoint is sent in range, at its bound, just past it, type-confused, null,
duplicated and beside an unknown name, and each reply must be the 200 or the
400 code the row names. A row the batch body lost (``strategy``, ``jobs``)
is sent the same ways, and every reply is 400 ``unknown_field``.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
from http import HTTPStatus
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

import repro.service.server as server_mod
from repro.core.config import DSQLConfig
from repro.service import GraphCatalog, QueryService, ServiceServer
from repro.service.schemas import (
    BATCH_SPEC,
    EDGE_SPEC,
    INGEST_SPEC,
    MAX_BODY_BYTES,
    QUERY_SPEC,
    FieldSpec,
    query_graph_to_json,
)
from tests.service.conftest import DEFAULT_K, tiny_graph, tiny_queries
from tests.guard_tables import service_status_rows

STATUS_ROWS = service_status_rows()
MAX_HEADER_LINES = server_mod._MAX_HEADERS

STATUS_LINE = re.compile(rb"HTTP/1\.0 (\d{3}) [A-Za-z -]+")
REPLY_HEADERS = ["Server", "Date", "Content-Type", "Content-Length"]
SERVER_HEADER = f"repro-service Python/{sys.version.split()[0]}"
QUERY_BODY = json.dumps(
    {"graph": "tiny", "query": query_graph_to_json(tiny_queries(count=1, seed=91)[0])}
).encode("ascii")


def _wire_service(**options) -> QueryService:
    catalog = GraphCatalog(default_config=DSQLConfig(k=DEFAULT_K))
    catalog.add_graph("tiny", tiny_graph())
    return QueryService(catalog, **options)


@pytest.fixture(scope="module")
def wire_server():
    server = ServiceServer(
        _wire_service(max_in_flight=2, max_queue=2, client_quota_rate=1e6), port=0
    ).start()
    yield server
    server.close()


def exchange(address, segments: List[bytes], pause_s: float = 0.0) -> bytes:
    """Send ``segments`` one ``send`` each, half-close, read to EOF."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for segment in segments:
                sock.sendall(segment)
                if pause_s:
                    time.sleep(pause_s)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # answered and closed before the rest arrived; the reply is read below
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def parse_reply(reply: bytes) -> Tuple[int, List[Tuple[str, str]], bytes]:
    """``(status, [(name, value)], body)`` of one well-formed HTTP/1.0 response."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep, reply[:200]
    status_line, *fields = head.split(b"\r\n")
    match = STATUS_LINE.fullmatch(status_line)
    assert match, status_line
    headers = [tuple(f.decode("latin-1").split(": ", 1)) for f in fields]
    assert all(len(h) == 2 for h in headers), headers
    names = [name for name, _ in headers]
    assert names in (REPLY_HEADERS, REPLY_HEADERS + ["Retry-After"]), names
    assert dict(headers)["Server"] == SERVER_HEADER
    assert dict(headers)["Content-Type"] == "application/json"
    assert int(dict(headers)["Content-Length"]) == len(body)
    return int(match.group(1)), headers, body


def error_code(status: int, body: bytes) -> Optional[str]:
    """The error code of an error body (and checks its shape); ``None`` below 400."""
    payload = json.loads(body)
    if status < 400:
        return None
    assert set(payload) == {"error"}, payload
    assert {"code", "message"} <= set(payload["error"]), payload
    assert isinstance(payload["error"]["code"], str)
    assert isinstance(payload["error"]["message"], str)
    return payload["error"]["code"]


# ----------------------------------------------------------------------
# Generated requests
# ----------------------------------------------------------------------
class Case:
    """One generated request and the status its pieces call for (``None``:
    nothing is sent, so nothing comes back)."""

    def __init__(self, data: bytes, head_length: int, expected: Optional[int]) -> None:
        self.data, self.head_length, self.expected = data, head_length, expected

    def __repr__(self) -> str:  # a head can be 70 kB
        return f"Case({self.data[:300]!r}, {len(self.data)} bytes, expected={self.expected})"


LENGTH_NAMES = ["Content-Length", "content-length", "CONTENT-LENGTH", "Content-length"]
BAD_FIELDS = ["NoColon", " folded: x", "Bad Name: x", "Host : x", ": empty", "Tab\t: x"]
GOOD_FIELDS = [
    "Host: 127.0.0.1", "X-Client-Id: fuzz", "x-client-id: other", "Accept: */*",
    "Content-Type:application/json", "X-Pad:   spaced   ", "X-Empty:",
]
DECLARED = [
    "exact", "missing", "-1", "1.5", "abc", "+5", "", "0x10", "over", "huge", "short", "long",
]


def declared_value(kind: str, body: bytes) -> Optional[str]:
    return {
        "exact": str(len(body)),
        "missing": None,
        "over": str(MAX_BODY_BYTES + 1),
        "huge": "9" * 5000,  # past int()'s digit limit
        "short": str(max(len(body) - 3, 0)),
        "long": str(len(body) + 7),
    }.get(kind, kind)


def expected_status(method, target, version, sep, fields, declared, body, oversized) -> int:
    """What the head's pieces call for, in the order the server judges them."""
    if oversized:
        return 431
    if sep != " " or not (method and target and version):
        return 400
    if not re.fullmatch(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+", method) or version not in (
        "HTTP/1.0", "HTTP/1.1",
    ):
        return 400
    if any(field in BAD_FIELDS for field in fields):
        return 400
    if method not in ("GET", "POST"):
        return 501
    path = target.split("?", 1)[0]
    if method == "GET":
        return 200 if path in ("/healthz", "/metrics") else 404
    if path != "/v1/query":
        return 404
    lengths = [f.split(":", 1)[1].strip() for f in fields if f.split(":", 1)[0] in LENGTH_NAMES]
    if not lengths:
        return 400
    value = lengths[0]
    if not (value.isascii() and value.isdigit()):
        return 400
    length = int(value) if len(value) < 20 else MAX_BODY_BYTES + 1
    if length > MAX_BODY_BYTES:
        return 413
    if length > len(body):
        return 400  # the connection closes before the declared body arrives
    return 200 if body[:length] == QUERY_BODY else 400


def pick(draw, usual, odd):
    """One of ``odd`` a quarter of the time, else one of ``usual`` (which is
    also what a failing example shrinks toward)."""
    return draw(st.sampled_from(usual * 3 * len(odd) + odd * len(usual)))


@st.composite
def cases(draw) -> Case:
    method = pick(draw, ["GET", "POST", "POST"], ["HEAD", "PUT", "get", "G@T", ""])
    target = pick(draw, ["/v1/query", "/v1/query?x=1", "/healthz", "/metrics"], ["/nope", ""])
    version = pick(
        draw, ["HTTP/1.1", "HTTP/1.0"], ["HTTP/2.0", "HTTP/0.9", "http/1.0", "HTTP/1", ""]
    )
    sep = pick(draw, [" "], ["  ", "\t"])
    eol = pick(draw, ["\r\n"], ["\n"])
    body = pick(draw, [QUERY_BODY], [b"{nope", b"", b"[1, 2]", b"\xff\xfe"])
    declared = declared_value(pick(draw, ["exact"], DECLARED), body)
    fields = draw(st.lists(st.sampled_from(GOOD_FIELDS), max_size=4))
    if declared is not None:
        name = draw(st.sampled_from(LENGTH_NAMES))
        fields.insert(draw(st.integers(0, len(fields))), f"{name}: {declared}")
        if draw(st.booleans()):  # a duplicate after it: the first one counts
            fields.append(f"{draw(st.sampled_from(LENGTH_NAMES))}: {len(body) + 1}")
    if pick(draw, [False], [True]):
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(BAD_FIELDS)))
    oversized = draw(st.sampled_from([None] * 14 + ["line", "count"]))
    if oversized == "line":
        fields.append("X-Long: " + "a" * 65536)
    elif oversized == "count":
        fields += [f"X-Many-{i}: x" for i in range(MAX_HEADER_LINES + 1)]
    line = sep.join(w for w in (method, target, version) if w)
    head = (eol.join([line, *fields]) + eol + eol).encode("latin-1")
    expected = expected_status(
        method, target, version, sep, fields, declared, body, oversized is not None
    )
    return Case(head + body, len(head), expected)


@st.composite
def deliveries(draw, case: Case) -> Tuple[List[bytes], float, Optional[int]]:
    """``(segments, pause between them, expected status)`` for one case."""
    data, mode = case.data, draw(st.sampled_from(["whole", "split", "trickle", "truncate"]))
    if mode == "split":
        cuts = sorted(draw(st.sets(st.integers(1, len(data) - 1), min_size=1, max_size=6)))
        return [data[i:j] for i, j in zip([0, *cuts], [*cuts, len(data)])], 0.001, case.expected
    if case.head_length > 2048:  # the oversized heads go whole or split
        mode = "whole"
    if mode == "trickle":
        trickled = [data[i:i + 1] for i in range(case.head_length)]
        return trickled + [data[case.head_length:]], 0.0, case.expected
    if mode == "truncate":
        cut = draw(st.integers(0, case.head_length - 1))
        # A cut past the header-line limit is refused as the lines arrive,
        # before the server can see the close.
        over = data[:cut].count(b"\n") > MAX_HEADER_LINES + 1
        return [data[:cut]], 0.0, None if cut == 0 else 431 if over else 400
    return [data], 0.0, case.expected


def test_a_head_at_the_line_limit_is_served_however_it_is_cut(wire_server):
    """Exactly ``MAX_HEADER_LINES`` header lines is a legal head, also when
    a segment ends right after the last of them: only a line past the
    limit is refused."""
    lines = ["GET /healthz HTTP/1.1"] + [f"X-Many-{i}: x" for i in range(MAX_HEADER_LINES)]
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n"
    status, _, _ = parse_reply(exchange(wire_server.address, [head, b"\r\n"], 0.05))
    assert status == 200
    head += b"X-Many-past: x\r\n"
    status, _, body = parse_reply(exchange(wire_server.address, [head, b"\r\n"], 0.05))
    assert (status, error_code(status, body)) == (431, "head_too_large")


def occupancy(service: QueryService):
    return (service.admission.in_flight, service.admission.waiting)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_raw_request_gets_one_well_formed_reply(wire_server, data):
    service = wire_server.service
    case = data.draw(cases())
    segments, pause_s, expected = data.draw(deliveries(case))
    buckets = dict(service.quotas._buckets)
    reply = exchange(wire_server.address, segments, pause_s)
    if expected is None:
        assert reply == b""
        return
    status, _, body = parse_reply(reply)
    code = error_code(status, body)
    assert status == expected, (status, code, b"".join(segments)[:300])
    if code is not None:
        assert (status, code) in STATUS_ROWS
    metrics = service.instrumentation.metrics.snapshot()
    assert metrics.get("service.requests.server_error", 0) == 0
    if status != 200:
        assert occupancy(service) == (0, 0)
        assert dict(service.quotas._buckets) == buckets


@pytest.mark.parametrize("status", [200, 400, 404, 413, 431, 501])
def test_the_fuzz_reaches_every_status(status):
    """The generator is not stuck on one answer: each status the head can
    call for is produced by some case."""
    case = find(
        cases(),
        lambda case: case.expected == status,
        settings=settings(
            max_examples=2000, database=None, phases=[Phase.generate], derandomize=True
        ),
    )
    assert case.expected == status


# ----------------------------------------------------------------------
# The read timeout
# ----------------------------------------------------------------------
def test_a_head_that_never_completes_is_dropped_at_the_read_timeout(monkeypatch):
    monkeypatch.setattr(server_mod._ServiceHandler, "timeout", 0.5)
    before = threading.active_count()
    server = ServiceServer(_wire_service(), port=0).start()
    try:
        with socket.create_connection(server.address, timeout=0.05) as stuck:
            stuck.sendall(b"POST /v1/query HTTP/1.1\r\n")
            started, reply = time.monotonic(), None
            while reply is None and time.monotonic() - started < 3.0:
                try:
                    stuck.sendall(b"X")  # trickled: a timeout per read would never fire
                    reply = stuck.recv(65536)
                except socket.timeout:
                    continue  # still open
                except OSError:
                    reply = b""  # reset: closed with the trickle unread
            assert reply == b""  # dropped, nothing sent
            assert 0.4 < time.monotonic() - started < 3.0
            # Its handler thread is free again: one more request is answered
            # by the same single thread, and the drain does not wait on it.
            reply = exchange(server.address, [b"GET /healthz HTTP/1.0\r\n\r\n"])
            assert parse_reply(reply)[0] == 200
    finally:
        closed = time.monotonic()
        server.close()
    assert time.monotonic() - closed < 1.0
    assert threading.active_count() == before


def test_a_stalled_body_is_answered_408_and_holds_a_drain_no_longer(monkeypatch):
    monkeypatch.setattr(server_mod._ServiceHandler, "timeout", 0.5)
    server = ServiceServer(_wire_service(), port=0).start()
    head = f"POST /v1/query HTTP/1.1\r\nContent-Length: {len(QUERY_BODY)}\r\n\r\n"
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(head.encode("ascii") + QUERY_BODY[:10])
        time.sleep(0.1)  # past the drain check, waiting on the rest of the body
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 2.0
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status, _, body = parse_reply(reply)
    assert (status, error_code(status, body)) == (408, "request_timeout")
    assert occupancy(server.service) == (0, 0)
    metrics = server.service.instrumentation.metrics.snapshot()
    assert metrics.get("service.requests.server_error", 0) == 0


# ----------------------------------------------------------------------
# The reply, pinned by counts
# ----------------------------------------------------------------------
class _CountingSocket:
    """Forwards to a socket and counts its ``sendall`` calls."""

    def __init__(self, sock, counts):
        self._sock, self._counts = sock, counts

    def sendall(self, data):
        self._counts.append(len(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_each_reply_is_one_sendall_with_the_parents_head():
    service = _wire_service(max_in_flight=1, max_queue=0, retry_after_s=2.5)
    server = ServiceServer(service, port=0)
    sends: List[int] = []
    handler = server._handler
    init = handler.__init__
    handler.__init__ = lambda self, request, *rest: init(
        self, _CountingSocket(request, sends), *rest
    )
    server.start()
    post = (
        f"POST {{}} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(QUERY_BODY)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    )
    requests = {
        "200": post.format("/v1/query").encode() + QUERY_BODY,
        "memo hit": post.format("/v1/query").encode() + QUERY_BODY,
        "404": post.format("/v1/nope").encode() + QUERY_BODY,
        "413": b"POST /v1/query HTTP/1.0\r\nContent-Length: 99999999999\r\n\r\n",
        "healthz": b"GET /healthz HTTP/1.0\r\n\r\n",
    }
    want = {"200": 200, "memo hit": 200, "404": 404, "413": 413, "healthz": 200, "429": 429}
    try:
        replies = {name: exchange(server.address, [data]) for name, data in requests.items()}
        assert service.admission.acquire()  # the only slot: the next query is shed
        replies["429"] = exchange(server.address, [requests["200"]])
        service.admission.release()
    finally:
        server.close()
    assert len(sends) == len(replies)
    for (name, reply), sent in zip(replies.items(), sends):
        status, headers, body = parse_reply(reply)
        assert status == want[name], name
        assert sent == len(reply), name
        names = [header for header, _ in headers]
        assert names == REPLY_HEADERS + (["Retry-After"] if name == "429" else []), name
        assert reply.startswith(f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n".encode())
    assert json.loads(parse_reply(replies["memo hit"])[2])["from_cache"] is True
    assert dict(parse_reply(replies["429"])[1])["Retry-After"] == "3"


# ----------------------------------------------------------------------
# Bodies, generated from the FieldSpec tables
# ----------------------------------------------------------------------
FUZZ_GRAPH = tiny_graph()
U, V = next((u, v) for u, v in sorted(FUZZ_GRAPH.edges()) if min(u, v) > 0)
FUZZ_QUERIES = [query_graph_to_json(q) for q in tiny_queries(count=3, seed=91)]
FUZZ_OPS = [["add_edge", U, V], ["remove_edge", U, V], ["add_vertex", "L"]]
FUZZ_ENDPOINTS = {
    # path: (its table, a valid body)
    "/v1/query": (QUERY_SPEC, {"graph": "tiny", "query": FUZZ_QUERIES[0]}),
    "/v1/batch": (BATCH_SPEC, {"graph": "tiny", "queries": FUZZ_QUERIES[:1]}),
    "/v1/graphs/tiny/edges": (EDGE_SPEC, {"op": "add", "u": U, "v": V}),
    "/v1/graphs/tiny/ingest": (INGEST_SPEC, {"ops": FUZZ_OPS[:1]}),
}
FUZZ_ROWS = [(path, field) for path, (spec, _) in FUZZ_ENDPOINTS.items() for field in spec]
# The rows the batch body had while it picked an executor strategy: a body
# naming either is refused as unknown, whatever the value.
GONE_ROWS = [
    ("/v1/batch", FieldSpec("strategy", "choice", bound=("serial", "thread", "process"))),
    ("/v1/batch", FieldSpec("jobs", "int", bound=1)),
]
SENT_ROWS = FUZZ_ROWS + GONE_ROWS
SENT_IDS = [f"{path.rsplit('/', 1)[1]}.{field.name}" for path, field in SENT_ROWS]


def in_range(field, other):
    """Values a row accepts (``other``: the body's other vertex id)."""
    kind, bound = field.kind, field.bound
    return {
        "str": lambda: st.just("tiny"),
        "query": lambda: st.sampled_from(FUZZ_QUERIES),
        "queries": lambda: st.lists(st.sampled_from(FUZZ_QUERIES), min_size=1, max_size=3),
        "ops": lambda: st.lists(st.sampled_from(FUZZ_OPS), min_size=1, max_size=3),
        "int": lambda: st.integers(bound, bound + 40),
        "number": lambda: st.floats(bound, 1e6) | st.integers(bound, 100),
        "positive": lambda: st.floats(bound, 1e4, exclude_min=True) | st.integers(bound + 1, 99),
        "choice": lambda: st.sampled_from(bound),
        "vertex": lambda: st.integers(bound, FUZZ_GRAPH.num_vertices - 1).filter(
            lambda u: u != other
        ),
    }[kind]()


# A list at its bound is a 4 096-query batch or a 100 000-op ingest (≈ 0.35 s
# each): the fuzz leaves those to test_a_list_at_its_bound_is_accepted.
LONG_LISTS = ("queries", "ops")
LONG_LIST_ROWS = [(path, field) for path, field in FUZZ_ROWS if field.kind in LONG_LISTS]


def at_bound(field):
    """The value on the row's bound that it still accepts (``None``: no bound)."""
    if field.kind in LONG_LISTS:
        return (FUZZ_QUERIES if field.kind == "queries" else FUZZ_OPS)[:1] * field.bound
    return {"int": field.bound, "vertex": field.bound, "number": field.bound}.get(
        field.kind, 5e-324 if field.kind == "positive" else None
    )


PAST_BOUND = {
    "int": lambda f: [f.bound - 1], "vertex": lambda f: [f.bound - 1],
    "number": lambda f: [f.bound - 1e-9, -1], "positive": lambda f: [f.bound, 0.0, -1],
    "queries": lambda f: [[], [0] * (f.bound + 1)], "ops": lambda f: [[], [0] * (f.bound + 1)],
    "str": lambda f: [""], "query": lambda f: [{"labels": []}], "choice": lambda f: ["nope"],
}
CONFUSED = {
    "int": [True, False, 2.0, 1.5, "3"], "vertex": [True, 1.0, "1"],
    "number": [True, "1.5", [1]], "positive": [False, "1.5", {}],
    "str": [1, True, ["tiny"]], "choice": [1, True, ["vertex"], {"a": 1}],
    "query": ["x", [1], 3], "queries": [{"a": 1}, "x", 3], "ops": [{"a": 1}, "x", 3],
}


@st.composite
def field_bodies(draw, path, field):
    """``([(name, value)], expected (status, code))``: the endpoint's valid body
    with one row's value in range, at its bound, just past it, type-confused
    or null, or sent twice (the last one counts), or an unknown name beside it."""
    base = FUZZ_ENDPOINTS[path][1]
    other = {"u": base.get("v"), "v": base.get("u")}.get(field.name)
    shape = draw(st.sampled_from(["in range", "at bound", "past bound", "confused", "null"]))
    if shape == "at bound" and field.kind not in LONG_LISTS and at_bound(field) is not None:
        value, valid = at_bound(field), True
    elif shape == "past bound":
        value, valid = draw(st.sampled_from(PAST_BOUND[field.kind](field))), False
    elif shape == "confused":
        value, valid = draw(st.sampled_from(CONFUSED[field.kind])), False
    elif shape == "null":
        value, valid = None, not field.required
    else:
        value, valid = draw(in_range(field, other)), True
    pairs = [(name, v) for name, v in base.items() if name != field.name]
    twist = draw(st.sampled_from([None, None, "duplicated", "unknown"]))
    if twist == "duplicated":  # an earlier copy; the decoder keeps the last one
        first = draw(st.sampled_from(CONFUSED[field.kind] + [None]))
        pairs.insert(draw(st.integers(0, len(pairs))), (field.name, first))
        pairs.append((field.name, value))
    else:
        pairs.insert(draw(st.integers(0, len(pairs))), (field.name, value))
    if twist == "unknown":
        pairs.append(("tiem_budget_ms", 1))
    if twist == "unknown" or (path, field) in GONE_ROWS:
        return pairs, (400, "unknown_field")
    return pairs, (200, None) if valid else (400, field.code)


@pytest.fixture(scope="module")
def body_server():
    server = ServiceServer(_wire_service(client_quota_rate=1e6), port=0).start()
    yield server
    server.close()


@pytest.mark.parametrize("path,field", SENT_ROWS, ids=SENT_IDS)
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_field_answers_as_its_row_says(body_server, path, field, data):
    pairs, expected = data.draw(field_bodies(path, field))
    assert send_body(body_server, path, pairs) == expected


@pytest.mark.parametrize("path,field", LONG_LIST_ROWS)
def test_a_list_at_its_bound_is_accepted(body_server, path, field):
    pairs = {**FUZZ_ENDPOINTS[path][1], field.name: at_bound(field)}.items()
    assert send_body(body_server, path, list(pairs)) == (200, None)


def send_body(server, path, pairs):
    """``(status, error code)`` of ``pairs`` sent as one JSON body (a name may
    repeat); a refused body must leave admission, the client's quota bucket
    and ``service.mutations`` as it found them."""
    service, metrics = server.service, server.service.instrumentation.metrics
    body = ("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}").encode()
    head = f"POST {path} HTTP/1.1\r\nX-Client-Id: fuzz\r\nContent-Length: {len(body)}\r\n\r\n"
    buckets, writes = dict(service.quotas._buckets), metrics.counter("service.mutations").value
    status, _, reply = parse_reply(exchange(server.address, [head.encode() + body]))
    code = error_code(status, reply)
    assert code is None or (status, code) in STATUS_ROWS, reply[:300]
    if status != 200:
        assert occupancy(service) == (0, 0)
        assert dict(service.quotas._buckets) == buckets
        assert metrics.counter("service.mutations").value == writes
    return status, code


@pytest.mark.parametrize("outcome", ["accepted", "refused"])
def test_the_body_fuzz_reaches_both_outcomes_on_every_row(outcome):
    """Each row's generator yields a body the row accepts and one it refuses
    with its own code."""
    for path, field in FUZZ_ROWS:
        want = (200, None) if outcome == "accepted" else (400, field.code)
        case = find(
            field_bodies(path, field),
            lambda case: case[1] == want,
            settings=settings(
                max_examples=500, database=None, phases=[Phase.generate], derandomize=True
            ),
        )
        assert case[1] == want
