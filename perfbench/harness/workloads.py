"""The systems under test, driven through their real entry points, and the reference.

Three drivers, one per way a caller reaches DSQL:

``engine``  ``DSQL.query`` on a warm session per objective, one thread;
``inproc``  ``QueryService.handle_post`` with raw JSON bytes in and
            ``json.dumps(body, sort_keys=True)`` out (what ``_send_json`` does);
``http``    ``ServiceServer`` in a spawned child process, closed-loop client
            threads over ``http.client`` (one connection per request — the
            server speaks HTTP/1.0).

Every answer is reduced to ``(embeddings, coverage, nodes_expanded)`` and
compared with a reference computed by a fresh serial ``DSQL`` on a twin
graph built from the same lists (the repo's bit-identical contract).
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.graph import LabeledGraph
from repro.graph.validation import validate_embedding
from repro.service import GraphCatalog, QueryService, ServiceServer
from repro.service.schemas import parse_json_body

from .calibrate import Calibrator
from .env import peak_rss_mib
from .inputs import GRAPH_NAME, Inputs, Op

Key = Optional[Tuple]
"""A comparable answer: ``(embeddings, coverage, nodes_expanded)`` for a read,
``("write", applied, compacted)`` for a write, ``None`` for a failed op."""

VALIDATE_EVERY = 16
"""Every n-th reference read has its embeddings passed through ``validate_embedding``."""


def build_graph(inputs: Inputs, timings: Dict[str, float]) -> LabeledGraph:
    """Lists -> ``LabeledGraph`` + its index cache, timing both steps."""
    t0 = time.perf_counter()
    graph = LabeledGraph(inputs.labels, inputs.edges, name=GRAPH_NAME)
    t1 = time.perf_counter()
    graph.index_cache()
    timings["graph.build_s"] = t1 - t0
    timings["indexes.cache_build_s"] = time.perf_counter() - t1
    return graph


def result_key(result) -> Tuple[Key, float]:
    """``(key, coverage ratio)`` of a ``DSQResult``."""
    key = (tuple(result.embeddings), result.coverage, result.stats.nodes_expanded)
    return key, result.approx_ratio_lower_bound()


def body_key(status: int, body: Dict[str, object]) -> Tuple[Key, float]:
    """``(key, coverage ratio)`` of a service response; non-200 is a failed op."""
    if status != 200:
        return None, 0.0
    if "applied" in body:
        return ("write", body["applied"], body["compacted"]), 0.0
    key = (
        tuple(tuple(e) for e in body["embeddings"]),
        body["coverage"],
        body["stats"]["nodes_expanded"],
    )
    return key, body["ratio_lower_bound"]


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
class EngineSystem:
    """``DSQL.query`` on one warm session per objective."""

    def __init__(self, inputs: Inputs, timings: Dict[str, float]) -> None:
        spec = inputs.spec
        self.queries = inputs.queries
        self.graph = build_graph(inputs, timings)
        self.sessions = {
            objective: DSQL(self.graph, spec.config(objective)) for objective in spec.objectives
        }

    def execute(self, op: Op):
        return self.sessions[op.objective].query(self.queries[op.query])

    @staticmethod
    def key(answer) -> Tuple[Key, float]:
        return result_key(answer)

    def close(self) -> Dict[str, float]:
        return {"peak_rss_mb": peak_rss_mib()}


def inproc_service(graph: LabeledGraph, config: DSQLConfig) -> QueryService:
    """The service stack over one graph: catalog (default ``config``) + service."""
    catalog = GraphCatalog(default_config=config)
    catalog.add_graph(GRAPH_NAME, graph, source="perfbench")
    return QueryService(catalog)


class InprocSystem:
    """``QueryService.handle_post``, bytes in, sorted JSON text out, no socket."""

    def __init__(self, inputs: Inputs, timings: Dict[str, float]) -> None:
        self.graph = build_graph(inputs, timings)
        self.service = inproc_service(self.graph, inputs.spec.config())

    @classmethod
    def over(cls, service: QueryService) -> "InprocSystem":
        """Drive an existing service (the traced run's in-process catalog)."""
        system = cls.__new__(cls)
        system.graph = service.catalog.get(GRAPH_NAME).graph
        system.service = service
        return system

    def execute(self, op: Op):
        raw = op.raw
        status, body, _ = self.service.handle_post(op.path, lambda: parse_json_body(raw))
        json.dumps(body, sort_keys=True)
        return status, body

    @staticmethod
    def key(answer) -> Tuple[Key, float]:
        return body_key(*answer)

    def close(self) -> Dict[str, float]:
        self.service.close()
        return {"peak_rss_mb": peak_rss_mib()}


def _serve(conn, inputs: Inputs) -> None:
    """Child process of :class:`HttpSystem`: build, serve until told to stop."""
    timings: Dict[str, float] = {}
    service = inproc_service(build_graph(inputs, timings), inputs.spec.config())
    server = ServiceServer(service, port=0).start()
    try:
        conn.send({"port": server.address[1], **timings})
        conn.recv()  # any message means stop; so does the parent going away
    except (EOFError, OSError):
        pass
    server.close()
    try:
        conn.send({"peak_rss_mb": peak_rss_mib()})
    except OSError:
        pass
    conn.close()


def http_post(port: int, op: Op) -> Tuple[int, bytes]:
    """One request on its own connection; returns status and the raw body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", op.path, body=op.raw, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class HttpSystem:
    """``ServiceServer`` in a spawned child; the parent only holds sockets."""

    def __init__(self, inputs: Inputs, timings: Dict[str, float]) -> None:
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        # The ops are the parent's business; the child gets the graph lists only.
        child_inputs = dataclasses.replace(inputs, queries=[], ops=[])
        self.process = context.Process(target=_serve, args=(child_conn, child_inputs))
        self.process.start()
        child_conn.close()
        try:
            hello = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError("server child died during start-up") from None
        self.port = hello.pop("port")
        timings.update(hello)

    def execute(self, op: Op):
        return http_post(self.port, op)

    @staticmethod
    def key(answer) -> Tuple[Key, float]:
        status, data = answer
        return body_key(status, json.loads(data))

    def close(self) -> Dict[str, float]:
        """Stop the child and wait for it; returns its own high-water RSS."""
        info: Dict[str, float] = {}
        try:
            self.conn.send("stop")
            info = self.conn.recv()
        except (EOFError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=60)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        return info


SYSTEMS = {"engine": EngineSystem, "inproc": InprocSystem, "http": HttpSystem}


# ----------------------------------------------------------------------
# Running the op script
# ----------------------------------------------------------------------
def run_ops(system, ops: Sequence[Op], latencies: List[float], answers: List) -> None:
    """Execute ``ops`` in order, appending each op's seconds and raw answer (or exception)."""
    execute = system.execute
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            answer = execute(op)
        except Exception as exc:  # a failed op, not a crash
            answer = exc
        latencies.append(clock() - start)
        answers.append(answer)


def run_cycle(
    system, inputs: Inputs, calibrator: Optional[Calibrator]
) -> Tuple[List[float], List, float]:
    """Execute the whole op script once; ``(per-op seconds, raw answers, wall seconds)``.

    One closed-loop caller per client: a client sends its next op only when
    the previous reply is in. Every ``chunk_ops`` ops per client all clients
    pause while the calibration kernel is timed, and each chunk's times are
    scaled to the nominal machine by the readings on either side of it (see
    :mod:`.calibrate`); the returned wall time is the sum of the scaled
    chunk times and excludes the pauses. Without a calibrator (the traced
    run) times are as measured. With several clients the lists are
    client-major, like ``inputs.ops``.
    """
    spec = inputs.spec
    clients, chunk = spec.clients, spec.chunk_ops
    per_client = len(inputs.ops) // clients
    starts = range(0, per_client, chunk)
    latencies: List[List[float]] = [[] for _ in range(clients)]
    answers: List[List] = [[] for _ in range(clients)]
    marks: List[Tuple[float, float, float]] = []  # (chunk end, kernel ms, next chunk start)

    def boundary() -> None:
        ended = time.perf_counter()
        reading = calibrator.measure() if calibrator is not None else 0.0
        marks.append((ended, reading, time.perf_counter()))

    if clients == 1:
        boundary()
        for first in starts:
            run_ops(system, inputs.ops[first : first + chunk], latencies[0], answers[0])
            boundary()
    else:
        barrier = threading.Barrier(clients, action=boundary)

        def client(c: int) -> None:
            mine = inputs.client_ops(c)
            barrier.wait()
            for first in starts:
                run_ops(system, mine[first : first + chunk], latencies[c], answers[c])
                barrier.wait()

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    wall = 0.0
    for j, first in enumerate(starts):
        factor = calibrator.factor(marks[j][1], marks[j + 1][1]) if calibrator else 1.0
        wall += (marks[j + 1][0] - marks[j][2]) * factor
        for series in latencies:
            for i in range(first, min(first + chunk, per_client)):
                series[i] *= factor
    return sum(latencies, []), sum(answers, []), wall


def keys_of(system, answers: Sequence) -> List[Tuple[Key, float]]:
    """Reduce raw answers to comparable keys (outside any timed region)."""
    out = []
    for answer in answers:
        if isinstance(answer, Exception):
            out.append((None, 0.0))
            continue
        try:
            out.append(system.key(answer))
        except (KeyError, TypeError, ValueError):  # a malformed body is a failed op
            out.append((None, 0.0))
    return out


def count_failed(keys: Sequence[Tuple[Key, float]], expected: Sequence[Tuple[Key, float]]) -> int:
    """Ops whose answer is missing or differs from the reference."""
    return sum(1 for (key, _), (want, _) in zip(keys, expected) if key is None or key != want)


# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------
def reference(inputs: Inputs, twin: LabeledGraph, corrupt: bool = False) -> List[Tuple[Key, float]]:
    """The expected ``(key, ratio)`` of every scripted op, from a serial ``DSQL`` on ``twin``.

    Writes are applied to the twin with ``LabeledGraph.mutate`` as the script
    reaches them, so each read is answered against the graph state the
    system under test has at that point. The script restores the graph, so
    one pass serves every cycle. ``corrupt`` (the vacuity self-test) alters
    the first read's expected coverage and drops one op from the first
    write, which a working check must notice.
    """
    spec = inputs.spec
    sessions = {objective: DSQL(twin, spec.config(objective)) for objective in spec.objectives}
    current: Dict[Tuple[int, str], Tuple[Key, float]] = {}  # valid until the next write
    expected: List[Tuple[Key, float]] = []
    reads = 0
    corrupt_read = corrupt
    for op in inputs.ops:
        if op.kind == "write":
            # The dropped op's inverse later no-ops on the twin, so the twin
            # still ends where it started; only the answers differ.
            mutation = op.mutation[1:] if corrupt else op.mutation
            corrupt = False
            summary = twin.mutate(mutation, compaction_threshold=op.threshold)
            expected.append((("write", summary.applied, summary.compacted), 0.0))
            current.clear()
            continue
        slot = (op.query, op.objective)
        if slot not in current:
            query = inputs.queries[op.query]
            result = sessions[op.objective].query(query)
            current[slot] = result_key(result)
            if corrupt_read:
                (embeddings, coverage, expanded), ratio = current[slot]
                current[slot] = ((embeddings, coverage + 1, expanded), ratio)
                corrupt_read = False
            if reads % VALIDATE_EVERY == 0:
                for embedding in result.embeddings:
                    validate_embedding(twin, query, embedding)
            reads += 1
        expected.append(current[slot])
    return expected
