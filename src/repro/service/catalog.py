"""Graph catalog: named graphs held warm for the process lifetime.

The whole point of the service (vs. the CLI) is amortization: a cold DSQL
answer pays graph construction plus the per-graph
:class:`~repro.indexes.graph_cache.GraphIndexCache` build before the first
candidate is ever expanded, while a warm session answers from pinned
indexes and a primed ``query_many`` memo. The catalog is where that warmth
lives:

* :class:`CatalogEntry` pins one graph, its index cache (built eagerly at
  load time, not on the first unlucky request), and a warm
  :class:`~repro.core.dsql.DSQL` session per *configuration* — the session
  memo is keyed only by query structure, so requests that override ``k`` /
  ``alpha`` / ``time_budget_ms`` must not share a memo with the default
  config. Per-config sessions live in a small LRU; the default-config
  session is pinned for the process lifetime.
* :class:`GraphCatalog` maps names to entries and is populated at startup
  from registry datasets (``"dblp"`` or ``"dblp@0.05"``) and/or graph files
  (``"name=path"``, edge-list or JSON format).

Concurrency discipline: ``DSQL.query`` is thread-safe (worker-local search
state over a lock-protected shared pool memo), and the ``query_many``
result memo carries its own lock (``DSQL._memo_answer``: look up under it,
search outside it, store under it), so the entry adds none: a point query
and a batch on the same graph share only the read lock below and the
memo's microsecond sections. Concurrent first requests for the same
structure may both search (deterministic search makes both results
identical). A batch gets a :class:`~repro.parallel.executor.BatchExecutor`
for the call — a ``process`` batch (Python API only; the wire sends serial
batches) starts its workers and stops them before
:meth:`CatalogEntry.answer_batch` returns; a caller that wants a warm pool
holds a ``BatchExecutor`` itself.

Live mutation discipline: every entry also owns a reader-writer lock.
Queries run as readers (many at once); :meth:`CatalogEntry.mutate` is the
single writer — it waits for in-flight queries to finish (they answer
against the pre-mutation view), applies the batch under exclusive access,
and readers admitted afterwards see the post-mutation graph at its new
``(epoch, delta_seq)`` version. The session memo needs no flush on
mutation: memo keys are version-qualified (``DSQL.memo_key``), so entries
computed against a prior version simply stop being reachable and age out
of the LRU. A writer that cannot drain the readers within its timeout
surfaces as HTTP 409 ``graph_busy`` with a ``Retry-After`` hint.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.core.result import DSQResult
from repro.cost.calibration import write_atomically
from repro.datasets.registry import make_dataset
from repro.exceptions import ConfigError, DatasetError, GraphError
from repro.graph.io import load_edge_list, load_json
from repro.graph.labeled_graph import LabeledGraph, MutationSummary
from repro.graph.query_graph import QueryGraph
from repro.observability import Instrumentation
from repro.parallel.executor import BatchExecutor
from repro.service.schemas import ServiceError

DEFAULT_SESSION_CACHE = 8
"""Per-entry cap on live non-default-config sessions (LRU evicted)."""

DEFAULT_WRITE_TIMEOUT_S = 10.0
"""How long a mutation waits for in-flight queries to drain before it
gives up with 409 ``graph_busy`` (callers should retry)."""


class _ReadWriteLock:
    """Writer-preferring reader-writer lock for the query/mutation split.

    Readers (queries) share the lock; the writer (a mutation batch) waits
    for the readers to drain and holds it exclusively. Writer preference —
    arriving readers queue behind a *waiting* writer — keeps a steady
    query stream from starving mutations. Write acquisition takes a
    timeout so a long-running batch cannot wedge the mutation endpoint
    forever; the caller maps the timeout to HTTP 409.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        return False
                    self._cond.wait(remaining)
                self._writer = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class CatalogEntry:
    """One named graph, pinned warm: index cache + per-config sessions."""

    def __init__(
        self,
        name: str,
        graph: LabeledGraph,
        default_config: DSQLConfig,
        instrumentation: Optional[Instrumentation] = None,
        source: str = "memory",
        max_sessions: int = DEFAULT_SESSION_CACHE,
    ) -> None:
        self.name = name
        self.graph = graph
        self.source = source
        self.default_config = default_config
        self.instrumentation = instrumentation
        # Build the per-graph indexes now, at load time: the first request
        # must not pay (or race) the one-off index construction.
        self.index_cache = graph.index_cache()
        self._rw = _ReadWriteLock()
        self._session_lock = threading.Lock()
        self._max_sessions = max_sessions
        self._sessions: "OrderedDict[DSQLConfig, DSQL]" = OrderedDict()
        self.default_session = DSQL(graph, config=default_config, instrumentation=instrumentation)

    # -- configuration / sessions --------------------------------------
    def request_config(
        self,
        k: Optional[int] = None,
        alpha: Optional[float] = None,
        time_budget_ms: Optional[float] = None,
        objective: Optional[str] = None,
        use_compression: Optional[bool] = None,
    ) -> DSQLConfig:
        """The default config with per-request overrides applied (400 on bad values).

        An ``objective`` override yields a distinct config — and therefore a
        distinct session in the per-config LRU — so results computed under
        different objectives can never share a ``query_many`` memo.
        Weighted-vertex requests use degree-derived weights: per-vertex
        weight tables never cross the wire, and the default config's
        ``vertex_weights`` (if any) is dropped when the objective changes
        away from ``weighted-vertex``. ``use_compression`` is accepted and
        ignored: perfbench harness 1.0 still passes it.
        """
        overrides: Dict[str, object] = {}
        if k is not None:
            overrides["k"] = k
        if alpha is not None:
            overrides["alpha"] = alpha
        if time_budget_ms is not None:
            overrides["time_budget_ms"] = time_budget_ms
        if objective is not None and objective != self.default_config.objective:
            overrides["objective"] = objective
            if objective != "weighted-vertex":
                overrides["vertex_weights"] = None
        if not overrides:
            return self.default_config
        try:
            return replace(self.default_config, **overrides)
        except ConfigError as exc:
            raise ServiceError(400, "invalid_config", str(exc)) from None

    def session(self, config: Optional[DSQLConfig] = None) -> DSQL:
        """The warm session for ``config`` (created and LRU-cached on demand).

        The default-config session is pinned outside the LRU so a burst of
        exotic configurations can never evict the steady-state fast path.
        """
        if config is None or config is self.default_config or config == self.default_config:
            return self.default_session
        with self._session_lock:
            session = self._sessions.get(config)
            if session is not None:
                self._sessions.move_to_end(config)
                return session
            session = DSQL(self.graph, config=config, instrumentation=self.instrumentation)
            self._sessions[config] = session
            if len(self._sessions) > self._max_sessions:
                self._sessions.popitem(last=False)
            return session

    # -- cost estimation -----------------------------------------------
    def estimate_cost(self, query: QueryGraph, config: Optional[DSQLConfig] = None):
        """The :class:`~repro.cost.CostEstimate` for ``query``.

        Runs *before* admission by design: estimation is a memoized fold
        over the compiled plan, and the plan is needed to answer anyway.

        The probe is a *reader*, as :meth:`answer` is: it compiles and
        caches a plan, so a write waits for it. The lock is released on
        return (also on a refusal), never held across admission's queue.
        """
        session = self.session(config)
        self._rw.acquire_read()
        try:
            return session.estimate(query)
        finally:
            self._rw.release_read()

    def observe_cost(
        self, estimate, result: DSQResult, config: Optional[DSQLConfig] = None
    ) -> None:
        """Feed one answered query's actual work back into calibration.

        Skipped for memo hits (the original search already reported this
        exact pair — re-observing would double-weight it) and for
        auto-budget configs (``DSQL._query_impl`` observes those itself on
        the estimate it derived the deadline from).
        """
        if result.from_cache:
            return
        config = config if config is not None else self.default_config
        if config.auto_time_budget and config.time_budget_ms is None:
            return
        self.index_cache.cost_estimator().observe(estimate, result.stats.nodes_expanded)

    # -- answering -----------------------------------------------------
    def answer(self, query: QueryGraph, config: Optional[DSQLConfig] = None, hit=None):
        """Answer one query with full ``query_many`` memo semantics, thread-safely.

        One step of the session's own memo (:meth:`DSQL._memo_answer`, which
        locks itself): a hit is served from it, a miss searches outside its
        lock — concurrent queries proceed in parallel — and stores the
        answer. Two threads that miss the same structure together both
        search and hold bit-identical results, because the search is
        deterministic.

        The whole answer runs as a *reader*: a concurrent mutation waits
        for it to finish, and this query sees one consistent graph version
        end to end (the memo key is stamped with that version). ``hit``, if
        given, turns a memo hit's stored result into the answer instead of
        the usual copy (the service's warm record replies from it).
        """
        session = self.session(config)
        self._rw.acquire_read()
        try:
            return session._memo_answer(
                session.memo_key(query), lambda: session.query(query), hit
            )
        finally:
            self._rw.release_read()

    def answer_batch(
        self,
        queries: Sequence[QueryGraph],
        config: Optional[DSQLConfig] = None,
        strategy: str = "serial",
        jobs: Optional[int] = None,
    ):
        """Answer a batch through :class:`~repro.parallel.executor.BatchExecutor`.

        Returns ``(results, report)`` with results bit-identical to serial
        ``query_many`` (the executor's replay guarantee). The executor lives
        for this call: it holds nobody else's lock, so point queries and
        other batches on this graph run beside it, and whatever a
        ``process`` batch started is stopped before this returns.
        """
        session = self.session(config)
        self._rw.acquire_read()
        try:
            with BatchExecutor(session, strategy=strategy, jobs=jobs) as executor:
                return executor.run(list(queries)), executor.last_report
        finally:
            self._rw.release_read()

    # -- mutation ------------------------------------------------------
    def mutate(
        self,
        ops: Sequence[Tuple],
        compaction_threshold: Optional[int] = None,
        write_timeout_s: Optional[float] = DEFAULT_WRITE_TIMEOUT_S,
    ) -> MutationSummary:
        """Apply a mutation batch as the graph's single writer.

        Waits (bounded by ``write_timeout_s``) for in-flight queries —
        they finish against the pre-mutation view — then applies the batch
        via :meth:`LabeledGraph.mutate` with exclusive access. Failure
        modes are typed: a drain timeout is 409 ``graph_busy`` (the
        standard back-off signal, with ``Retry-After``); a malformed batch
        is 400 ``invalid_mutation`` and, because the batch pre-validates,
        leaves the graph untouched. ``compaction_threshold`` is accepted
        and ignored: perfbench harness 1.0 still passes it.
        """
        if not self._rw.acquire_write(write_timeout_s):
            raise ServiceError(
                409,
                "graph_busy",
                f"graph {self.name!r} is busy (queries or a mutation in flight); "
                f"could not acquire the write lock within {write_timeout_s:g}s",
                retry_after_s=1.0,
            )
        try:
            try:
                return self.graph.mutate(ops)
            except GraphError as exc:
                raise ServiceError(400, "invalid_mutation", str(exc)) from None
        finally:
            self._rw.release_write()

    # -- introspection -------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Static + live facts about this entry (for ``/metrics``)."""
        with self._session_lock:
            extra_sessions = len(self._sessions)
        return {
            "source": self.source,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "version": list(self.index_cache.version),
            "labels": len(self.index_cache.label_table),
            "sessions": 1 + extra_sessions,
            "default_k": self.default_config.k,
            "plan_cache": self.index_cache.plan_cache.info(),
        }


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class GraphCatalog:
    """Name -> :class:`CatalogEntry` map, populated once at startup.

    The catalog always carries an :class:`~repro.observability.
    Instrumentation` (creating a metrics-only one when none is given): the
    service's ``/metrics`` endpoint needs a registry to snapshot, and every
    session the catalog creates reports into it — including the memo and
    candidate-pool hit rates that prove the warmth is real.
    """

    def __init__(
        self,
        default_config: Optional[DSQLConfig] = None,
        instrumentation: Optional[Instrumentation] = None,
        seed: int = 0,
    ) -> None:
        self.default_config = default_config if default_config is not None else DSQLConfig(k=10)
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self.seed = seed
        self._entries: Dict[str, CatalogEntry] = {}

    # -- population ----------------------------------------------------
    def add_graph(self, name: str, graph: LabeledGraph, source: str = "memory") -> CatalogEntry:
        """Register an in-memory graph under ``name`` (duplicate names refuse)."""
        if not name:
            raise ConfigError("graph name must be non-empty")
        if name in self._entries:
            raise ConfigError(f"duplicate graph name {name!r} in catalog")
        entry = CatalogEntry(
            name,
            graph,
            self.default_config,
            instrumentation=self.instrumentation,
            source=source,
        )
        self._entries[name] = entry
        return entry

    def add_dataset(self, spec: str) -> CatalogEntry:
        """Register a registry dataset from ``"name"`` or ``"name@scale"``."""
        name, _, scale_text = spec.partition("@")
        scale: Optional[float] = None
        if scale_text:
            try:
                scale = float(scale_text)
            except ValueError:
                raise DatasetError(
                    f"bad dataset spec {spec!r}: scale {scale_text!r} is not a number"
                ) from None
        graph = make_dataset(name, scale=scale, seed=self.seed)
        return self.add_graph(name, graph, source=f"dataset:{spec}")

    def add_file(self, spec: str) -> CatalogEntry:
        """Register a graph file from ``"name=path"`` (JSON or edge-list format)."""
        name, sep, path_text = spec.partition("=")
        if not sep or not name or not path_text:
            raise DatasetError(f"bad graph spec {spec!r}: expected NAME=PATH")
        path = Path(path_text)
        if not path.is_file():
            raise DatasetError(f"graph file not found: {path}")
        graph = load_json(path) if path.suffix == ".json" else load_edge_list(path, name=name)
        return self.add_graph(name, graph, source=f"file:{path}")

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> CatalogEntry:
        """Entry lookup; unknown names become the 404 the service returns."""
        try:
            return self._entries[name]
        except KeyError:
            raise ServiceError(
                404,
                "unknown_graph",
                f"unknown graph {name!r}; loaded graphs: {self.names()}",
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Per-graph facts for ``/metrics`` and startup logging."""
        return {name: self._entries[name].describe() for name in self.names()}

    # -- calibration persistence ---------------------------------------
    def save_calibration(self, path) -> List[str]:
        """Persist every graph's cost-calibration state to ``path``.

        Only graphs whose estimator has actually observed queries are
        written — a fresh estimator carries no information worth saving.
        Returns the graph names written.
        """
        from repro.cost import save_calibration as _save

        table = {}
        for name in self.names():
            state = self._entries[name].index_cache.cost_estimator().snapshot()
            if state.observations > 0:
                table[name] = state
        _save(path, table)
        return sorted(table)

    def load_calibration(self, path) -> List[str]:
        """Restore cost-calibration state saved by :meth:`save_calibration`.

        Missing/corrupt files and unknown graph names are ignored (a
        calibration file is an optimization, never a startup dependency).
        Returns the graph names restored.
        """
        from repro.cost import load_calibration as _load

        table = _load(path)
        if not table:
            return []
        restored = []
        for name, entry in self._entries.items():
            state = table.get(name)
            if state is not None:
                entry.index_cache.cost_estimator().restore(state)
                restored.append(name)
        return sorted(restored)

    # -- plan-cache persistence ----------------------------------------
    def save_plan_cache(self, path) -> int:
        """Persist every graph's compiled-plan *specs* to ``path`` (JSON).

        Plans themselves are graph-version-pinned and cheap to recompile;
        what is worth keeping across restarts is *which* plans the traffic
        compiled — the canonical query structures plus the compile toggle
        (:meth:`~repro.indexes.plans.PlanCache.dump_specs`). Returns the
        total number of specs written.
        """
        table = {}
        total = 0
        for name in self.names():
            specs = self._entries[name].index_cache.plan_cache.dump_specs()
            if specs:
                table[name] = specs
                total += len(specs)
        payload = {"version": 1, "graphs": table}
        write_atomically(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return total

    def load_plan_cache(self, path) -> int:
        """Eagerly recompile plans from a :meth:`save_plan_cache` file.

        Missing/corrupt files, unknown graph names, and specs that no
        longer compile are all skipped — a warm file is an optimization,
        never a startup dependency. Returns the number of plans warmed
        (the ``plan_cache.warmed=N`` startup line).
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        table = payload.get("graphs") if isinstance(payload, dict) else None
        if not isinstance(table, dict):
            return 0
        warmed = 0
        for name, entry in self._entries.items():
            specs = table.get(name)
            if isinstance(specs, list) and specs:
                cache = entry.index_cache
                warmed += cache.plan_cache.warm_from_specs(specs, cache)
        return warmed


def build_catalog(
    datasets: Sequence[str] = (),
    graph_files: Sequence[str] = (),
    default_config: Optional[DSQLConfig] = None,
    instrumentation: Optional[Instrumentation] = None,
    seed: int = 0,
) -> Tuple[GraphCatalog, List[str]]:
    """Build a catalog from CLI-style specs; returns ``(catalog, log lines)``.

    ``datasets`` entries are ``"name"``/``"name@scale"``; ``graph_files``
    entries are ``"name=path"``. Raises
    :class:`~repro.exceptions.ReproError` subtypes on bad specs, which the
    CLI surfaces as argument errors.
    """
    catalog = GraphCatalog(
        default_config=default_config, instrumentation=instrumentation, seed=seed
    )
    lines: List[str] = []
    for spec in datasets:
        entry = catalog.add_dataset(spec)
        info = entry.describe()
        lines.append(
            f"loaded {entry.name}: |V|={info['vertices']} |E|={info['edges']} ({entry.source})"
        )
    for spec in graph_files:
        entry = catalog.add_file(spec)
        info = entry.describe()
        lines.append(
            f"loaded {entry.name}: |V|={info['vertices']} |E|={info['edges']} ({entry.source})"
        )
    return catalog, lines
