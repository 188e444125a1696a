"""Pre-forked multi-worker service front: each worker is started with the graphs.

One :class:`MultiWorkerServer` turns a warm
:class:`~repro.service.catalog.GraphCatalog` into ``N`` worker *processes*
answering on a single port:

* the parent forks the workers with its catalog's graphs as start
  arguments, so every worker **inherits** them — nothing is copied,
  serialized or written anywhere for a graph to cross the process boundary;
* each worker wraps the storage it inherited in graphs of its own
  (:func:`~repro.parallel.pool.worker_graph`, the rule the worker pool
  follows too: index cache and every lock built in the worker, at the
  parent's version), builds its own
  :class:`~repro.service.catalog.GraphCatalog` /
  :class:`~repro.service.server.QueryService` (private plan caches, memo,
  metrics registry), and binds the shared query port with ``SO_REUSEPORT``
  — the kernel load-balances incoming connections across the workers with
  no userspace dispatcher on the request path;
* every worker also runs a loopback **admin server** (same endpoints, its
  private address) and reports it to the parent over a pipe; the parent's
  **control server** serves a merged view — ``GET /healthz`` and
  ``GET /metrics`` fan out to all workers and aggregate (scalar metrics are
  summed via :func:`~repro.observability.metrics.merge_snapshots`).

Lifecycle: ``start()`` warms every graph's index cache, forks, and waits for
every worker's ready message; ``close()`` (or SIGTERM via
``install_signal_handlers``) asks each worker to drain over its pipe and
joins it. A worker that lost its parent sees EOF on the pipe and drains
itself; the front owns nothing but its processes, pipes and two sockets.

Requires ``SO_REUSEPORT`` and the ``fork`` start method (Linux and most
BSDs); construction raises :class:`~repro.exceptions.ConfigError`
elsewhere — the single-process :class:`~repro.service.server.ServiceServer`
remains the portable path.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import signal
import socket
import threading
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigError
from repro.graph.labeled_graph import LabeledGraph
from repro.observability import Instrumentation
from repro.observability.metrics import merge_snapshots
from repro.parallel.pool import worker_graph
from repro.service.catalog import GraphCatalog
from repro.service.schemas import ServiceError
from repro.service.server import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_MAX_QUEUE,
    DEFAULT_RETRY_AFTER_S,
    QueryService,
    ServiceServer,
)

logger = logging.getLogger("repro.service")

_READY_TIMEOUT_S = 60.0
_FETCH_TIMEOUT_S = 5.0
_JOIN_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    index: int,
    host: str,
    port: int,
    graphs: List[Tuple[str, LabeledGraph, str]],
    default_config,
    max_in_flight: int,
    max_queue: int,
    retry_after_s: float,
    service_options: Dict[str, object],
    conn,
) -> None:
    """One pre-forked worker: serve its graphs on the shared port, drain on demand."""
    # The parent coordinates shutdown through the pipe; a terminal SIGINT
    # (Ctrl-C hits the whole foreground process group) must not kill the
    # worker before the parent's drain message arrives.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    front = admin = None
    try:
        catalog = GraphCatalog(
            default_config=default_config, instrumentation=Instrumentation()
        )
        for name, graph, source in graphs:
            catalog.add_graph(name, worker_graph(graph), source=source)
        # Workers serve private copies of the parent's graphs: a write applied
        # in one worker would be invisible to its siblings behind the same
        # port, so the whole front is read-only (501 mutation_unsupported).
        # service_options threads the admission-mode / quota / access-log
        # knobs through verbatim (every worker prices and logs its own
        # share of the kernel-balanced traffic; the access log file is
        # append-mode, so concurrent workers interleave whole lines).
        service = QueryService(
            catalog,
            max_in_flight=max_in_flight,
            max_queue=max_queue,
            retry_after_s=retry_after_s,
            identity={"role": "worker", "worker": index, "pid": os.getpid()},
            allow_mutations=False,
            **service_options,
        )
        front = ServiceServer(service, host=host, port=port, reuse_port=True).start()
        admin = ServiceServer(service, host="127.0.0.1", port=0).start()
        conn.send(
            ("ready", {"worker": index, "pid": os.getpid(), "admin_url": admin.url})
        )
    except Exception as exc:  # pragma: no cover - startup failures are terminal
        logger.exception("worker %d failed to start", index)
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        # Block until the parent requests a drain; EOF means the parent is
        # gone and the worker must drain itself.
        conn.recv()
    except (EOFError, OSError):
        pass
    front.close()
    if admin is not None:
        admin.close()
    try:
        conn.send(("closed", index))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent already gone
        pass
    conn.close()


# ----------------------------------------------------------------------
# Parent control server
# ----------------------------------------------------------------------
class _ControlService(QueryService):
    """The merged views on the service's own transport: ``GET /healthz`` and
    ``GET /metrics`` fan out to the workers, and there is no POST route, so
    everything else is the one JSON error shape. Its own empty catalog holds
    its request counters apart from the workers' and the parent's."""

    def __init__(self, front: "MultiWorkerServer") -> None:
        super().__init__(GraphCatalog())
        self.front = front

    def _route(self, path: str) -> None:
        return None

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        return self.front.merged_healthz()

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.front.merged_metrics()


def _fetch_json(url: str) -> Tuple[Optional[int], Dict[str, object]]:
    """GET a worker admin endpoint; errors become a reportable body, in the
    service's one error shape (:meth:`ServiceError.to_body`)."""
    try:
        with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT_S) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read().decode("utf-8"))
        except Exception:  # pragma: no cover - malformed error body
            return exc.code, ServiceError(502, "bad_response", str(exc)).to_body()
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return None, ServiceError(502, "unreachable", message).to_body()


class MultiWorkerServer:
    """N pre-forked workers behind one SO_REUSEPORT-balanced port.

    Parameters
    ----------
    catalog:
        The warm catalog whose graphs the workers are started with; the
        parent answers no request from it — the workers' copies do.
    workers:
        Worker-process count (>= 1).
    host, port:
        The shared query address; ``port=0`` picks an ephemeral port, which
        the parent reserves with a placeholder ``SO_REUSEPORT`` socket
        before any worker binds.

    Usage::

        front = MultiWorkerServer(catalog, workers=4).start()
        ... requests against front.url, merged views at front.control_url ...
        front.close()
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        service_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ConfigError("SO_REUSEPORT is not available on this platform")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform-dependent
            raise ConfigError(
                "the fork start method is required for pre-forked workers"
            ) from None
        self.catalog = catalog
        self.workers = workers
        self.host = host
        self._requested_port = port
        self._max_in_flight = max_in_flight
        self._max_queue = max_queue
        self._retry_after_s = retry_after_s
        # Extra QueryService kwargs shipped to every worker (admission
        # mode, work-unit budget, per-client quotas, access-log path).
        self._service_options = dict(service_options or {})
        self._placeholder: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._processes: List = []
        self._pipes: List = []
        self.worker_info: List[Dict[str, object]] = []
        self._control: Optional[ServiceServer] = None
        self._started = False
        self._close_lock = threading.Lock()
        self._closed = False

    # -- addresses -----------------------------------------------------
    @property
    def url(self) -> str:
        """The shared, kernel-balanced query URL."""
        return f"http://{self.host}:{self._port}"

    @property
    def control_url(self) -> str:
        """The parent's merged /healthz + /metrics URL."""
        return self._control.url

    # -- startup -------------------------------------------------------
    def start(self) -> "MultiWorkerServer":
        """Fork the workers, await readiness, start the control server."""
        try:
            return self._start()
        except Exception:
            self.close()
            raise

    def _start(self) -> "MultiWorkerServer":
        # Reserve the shared port first so an ephemeral request (port=0)
        # resolves to one concrete port every worker can bind. The
        # placeholder never listens, so it receives no connections.
        self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._placeholder.bind((self.host, self._requested_port))
        self._port = self._placeholder.getsockname()[1]

        # Warm every index cache BEFORE forking: each worker then starts
        # from the parent's signature table and version instead of sweeping
        # the edges itself.
        shipped = []
        for name in self.catalog.names():
            entry = self.catalog.get(name)
            entry.graph.index_cache()
            shipped.append((name, entry.graph, entry.source))

        for index in range(self.workers):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(
                    index, self.host, self._port, shipped,
                    self.catalog.default_config,
                    self._max_in_flight, self._max_queue, self._retry_after_s,
                    self._service_options,
                    child_conn,
                ),
                name=f"repro-worker-{index}",
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)

        for index, conn in enumerate(self._pipes):
            if not conn.poll(_READY_TIMEOUT_S):
                raise ConfigError(f"worker {index} did not become ready")
            kind, info = conn.recv()
            if kind != "ready":
                raise ConfigError(f"worker {index} failed to start: {info}")
            self.worker_info.append(info)
            logger.info("worker %d ready: pid=%s admin=%s",
                        index, info["pid"], info["admin_url"])

        self._control = ServiceServer(_ControlService(self), host=self.host, port=0).start()
        self._started = True
        return self

    # -- merged views --------------------------------------------------
    def _fan_out(self, endpoint: str) -> List[Dict[str, object]]:
        """Fetch ``endpoint`` from every worker's admin server, in parallel."""
        bodies: List[Optional[Dict[str, object]]] = [None] * len(self.worker_info)

        def fetch(slot: int, info: Dict[str, object]) -> None:
            status, body = _fetch_json(f"{info['admin_url']}{endpoint}")
            body.setdefault("worker", info["worker"])
            body["reachable"] = status is not None
            bodies[slot] = body

        threads = [
            threading.Thread(target=fetch, args=(slot, info), daemon=True)
            for slot, info in enumerate(self.worker_info)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [body for body in bodies if body is not None]

    def merged_healthz(self) -> Tuple[int, Dict[str, object]]:
        """All workers' /healthz, plus an aggregate status (503 if any is down)."""
        bodies = self._fan_out("/healthz")
        healthy = sum(1 for body in bodies if body.get("status") == "ok")
        status = 200 if healthy == len(bodies) else 503
        return status, {
            "status": "ok" if status == 200 else "degraded",
            "role": "multiworker",
            "workers": len(bodies),
            "healthy_workers": healthy,
            "shared_url": self.url,
            "per_worker": bodies,
        }

    def merged_metrics(self) -> Dict[str, object]:
        """All workers' /metrics, with scalar metrics summed across workers."""
        bodies = self._fan_out("/metrics")
        merged = merge_snapshots(
            body.get("metrics") for body in bodies if isinstance(body.get("metrics"), dict)
        )
        return {
            "role": "multiworker",
            "workers": len(bodies),
            "metrics": merged,
            "per_worker": bodies,
        }

    # -- serving / shutdown --------------------------------------------
    def serve_forever(self) -> None:
        """Park the calling thread until :meth:`close` runs (CLI path)."""
        self._serve_done = threading.Event()
        self._serve_done.wait()

    def request_shutdown(self) -> None:
        """Signal-safe drain trigger (mirrors :class:`ServiceServer`)."""
        threading.Thread(target=self.close, name="repro-multiworker-drain", daemon=True).start()

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)) -> Dict:
        previous = {}
        for sig in signals:
            previous[sig] = signal.signal(sig, lambda *_: self.request_shutdown())
        return previous

    def close(self) -> None:
        """Drain the workers and stop the control server (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for conn in self._pipes:
            try:
                conn.send(("shutdown", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT_S)
            if process.is_alive():  # pragma: no cover - drain timeout
                logger.warning("worker %s did not drain in time; terminating", process.name)
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_S)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._control is not None:
            self._control.close()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        done = getattr(self, "_serve_done", None)
        if done is not None:
            done.set()
        logger.info("multiworker drain complete")


__all__ = ["MultiWorkerServer"]
