"""Admission control: count-based and cost-aware gates behind one seam.

The service's load-shedding policy started as two small numbers:

``max_in_flight``
    How many requests may be *executing* concurrently. DSQL queries are
    CPU-bound pure Python, so running many more than the core count only
    grows every request's latency; a tight in-flight cap keeps the p99
    honest.
``max_queue``
    How many further requests may *wait* for an execution slot. Beyond
    that, the server is overloaded by definition and the correct answer is
    an immediate ``429`` with ``Retry-After`` — queueing deeper would only
    manufacture timeouts (the classic unbounded-queue failure mode).

:class:`AdmissionController` implements exactly this count-based gate and
stays the default. But one dense-pool DSQ query costs ~10000x a cheap one,
so counting *requests* lets a handful of adversarial queries occupy every
slot while the cheap 99% starve in the queue.
:class:`WorkUnitAdmissionController` prices requests in estimated **work
units** (see :mod:`repro.cost`) instead: a request is admitted when the
units already in flight leave room in the budget, so a dense query
occupies its true share and cheap traffic keeps flowing around it.

All controllers share the admission seam the transport calls:

* ``mode`` — ``"count"`` / ``"cost"`` / ``"off"``, surfaced in /healthz;
* ``try_admit(cost) -> ticket | None`` — ``None`` is the overload signal;
* ``release(ticket)`` — paired with every successful admit;
* ``retry_after_hint(base_s, cost)`` — the ``Retry-After`` value, scaled
  by live occupancy so clients back off proportionally instead of
  thundering back in lockstep;
* ``describe()`` — live occupancy snapshot for ``/healthz``.

:class:`ClientQuotas` layers *per-client* token buckets (work-units/sec,
keyed by the ``X-Client-Id`` header) in front of whichever global gate is
active, so one greedy client exhausts its own bucket — ``429
quota_exceeded`` — before it can push the whole service into ``429
overloaded``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.cost import DEFAULT_WORK_UNIT_RATE
from repro.exceptions import ConfigError
from repro.observability.metrics import MetricsRegistry

ADMISSION_MODES = ("count", "cost", "off")

DEFAULT_WORK_UNIT_BUDGET = 50_000.0
"""Default global budget of estimated work units in flight."""

MAX_RETRY_AFTER_S = 60.0
"""Ceiling on every Retry-After hint: clients should re-probe at least
once a minute, whatever the backlog estimate says."""


class AdmissionTicket:
    """Handle returned by ``try_admit``; carries the admitted cost so the
    matching ``release`` is self-describing."""

    __slots__ = ("cost",)

    def __init__(self, cost: float) -> None:
        self.cost = cost


class AdmissionController:
    """Bounded-concurrency gate: at most ``max_in_flight`` holders,
    at most ``max_queue`` waiters, immediate rejection beyond that.

    Parameters
    ----------
    max_in_flight:
        Concurrent execution slots (>= 1).
    max_queue:
        Requests allowed to block waiting for a slot (>= 0). ``0`` means
        no queueing at all: a full service rejects instantly.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; when given,
        the ``service.in_flight`` and ``service.queue_depth`` gauges track
        the live occupancy.
    """

    mode = "count"

    def __init__(self, max_in_flight: int, max_queue: int, metrics=None) -> None:
        if max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if max_queue < 0:
            raise ConfigError(f"max_queue must be >= 0, got {max_queue}")
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._in_flight = 0
        self._waiting = 0
        self._rejected = 0
        # Bound once, in a registry of its own when given none: acquire and
        # release publish without a registry lookup or a test.
        metrics = metrics or MetricsRegistry()
        self._gauges = (metrics.gauge("service.in_flight"), metrics.gauge("service.queue_depth"))

    # -- gauges --------------------------------------------------------
    def _publish(self) -> None:
        # Called with the lock held; gauge writes are cheap and lock-free
        # from this side (each gauge has its own lock).
        in_flight, queue_depth = self._gauges
        in_flight.set(self._in_flight)
        queue_depth.set(self._waiting)

    # -- the gate ------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Take an execution slot, waiting in the bounded queue if needed.

        Returns ``True`` once a slot is held (the caller *must* pair it with
        :meth:`release`), ``False`` when the queue is already full — the
        overload signal — or when ``timeout`` (seconds) elapses while
        waiting.
        """
        with self._slot_freed:
            if self._in_flight < self.max_in_flight:
                self._in_flight += 1
                self._publish()
                return True
            if self._waiting >= self.max_queue:
                self._rejected += 1
                return False
            self._waiting += 1
            self._publish()
            try:
                while self._in_flight >= self.max_in_flight:
                    if not self._slot_freed.wait(timeout=timeout):
                        self._rejected += 1
                        return False
                self._in_flight += 1
                return True
            finally:
                self._waiting -= 1
                self._publish()

    def release(self, ticket: Optional[AdmissionTicket] = None) -> None:
        """Return a slot taken by a successful :meth:`acquire`/``try_admit``.

        The ticket is accepted (and ignored) so the seam's paired
        ``try_admit``/``release`` calling convention works unchanged.
        """
        with self._slot_freed:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._in_flight -= 1
            self._publish()
            self._slot_freed.notify()

    # -- the seam ------------------------------------------------------
    def try_admit(
        self, cost: float = 1.0, timeout: Optional[float] = None
    ) -> Optional[AdmissionTicket]:
        """Count-based admit: every request costs one slot, whatever its
        estimated work. Returns a ticket or ``None`` (overloaded)."""
        if not self.acquire(timeout=timeout):
            return None
        return AdmissionTicket(cost)

    def retry_after_hint(self, base_s: float, cost: float = 0.0) -> float:
        """Retry-After scaled by queue occupancy.

        The queue drains roughly one waiter per slot per mean service
        time, so a client behind ``w`` waiters should back off about
        ``w / max_in_flight`` service times longer than one arriving at an
        empty queue. Monotone in the waiter count by construction (unit
        test pins this), clamped to :data:`MAX_RETRY_AFTER_S`.
        """
        with self._lock:
            waiting = self._waiting
        scaled = base_s * (1.0 + waiting / float(self.max_in_flight))
        return min(MAX_RETRY_AFTER_S, scaled)

    # -- introspection -------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def waiting(self) -> int:
        return self._waiting

    @property
    def rejected(self) -> int:
        """Requests turned away since construction (monotonic)."""
        return self._rejected

    def describe(self) -> Dict[str, object]:
        """Live occupancy snapshot for ``/healthz``."""
        with self._lock:
            return {
                "mode": self.mode,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "in_flight": self._in_flight,
                "queue_depth": self._waiting,
                "rejected_total": self._rejected,
            }


class WorkUnitAdmissionController:
    """Cost-aware gate: admits while estimated work units fit the budget.

    Admission rules, checked under one lock:

    * a **zero-cost** request (provably-empty search, mutation bookkeeping)
      always admits — the estimator guarantees it cannot occupy the engine;
    * an **idle** gate admits any cost — a single query costlier than the
      whole budget must still be runnable;
    * otherwise the request admits iff ``units_in_flight + cost <= budget``
      and a concurrency guard (``max_in_flight``) has a free slot.

    There is deliberately no wait queue: the whole point of cost-aware
    admission is that the rejection is *informative* — ``Retry-After`` is
    the estimated time for the in-flight units to drain at the configured
    ``drain_rate`` (work units per second), so expensive rejections back
    off long and cheap rejections return almost immediately.
    """

    mode = "cost"

    def __init__(
        self,
        work_unit_budget: float = DEFAULT_WORK_UNIT_BUDGET,
        max_in_flight: int = 64,
        drain_rate: float = DEFAULT_WORK_UNIT_RATE * 1000.0,
        metrics=None,
    ) -> None:
        if work_unit_budget <= 0:
            raise ConfigError(
                f"work_unit_budget must be positive, got {work_unit_budget}"
            )
        if max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if drain_rate <= 0:
            raise ConfigError(f"drain_rate must be positive, got {drain_rate}")
        self.work_unit_budget = float(work_unit_budget)
        self.max_in_flight = max_in_flight
        self.drain_rate = float(drain_rate)
        self._lock = threading.Lock()
        self._units_in_flight = 0.0
        self._in_flight = 0
        self._rejected = 0
        metrics = metrics or MetricsRegistry()  # bound once, as AdmissionController's
        self._gauges = (
            metrics.gauge("service.in_flight"), metrics.gauge("service.work_units_in_flight")
        )

    def _publish(self) -> None:
        in_flight, units = self._gauges
        in_flight.set(self._in_flight)
        units.set(self._units_in_flight)

    def try_admit(
        self, cost: float = 1.0, timeout: Optional[float] = None
    ) -> Optional[AdmissionTicket]:
        """Admit ``cost`` estimated work units, or return ``None``."""
        cost = max(0.0, float(cost))
        with self._lock:
            admit = (
                cost == 0.0
                or self._in_flight == 0
                or (
                    self._units_in_flight + cost <= self.work_unit_budget
                    and self._in_flight < self.max_in_flight
                )
            )
            if not admit:
                self._rejected += 1
                return None
            self._units_in_flight += cost
            self._in_flight += 1
            self._publish()
            return AdmissionTicket(cost)

    def release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching try_admit()")
            self._in_flight -= 1
            self._units_in_flight = max(0.0, self._units_in_flight - ticket.cost)
            self._publish()

    def retry_after_hint(self, base_s: float, cost: float = 0.0) -> float:
        """Retry-After from the estimated drain time of the backlog.

        The rejected request needs ``units_in_flight + cost - budget``
        units to drain before it could fit; at ``drain_rate`` units/sec
        that is a concrete wait estimate. Monotone in the in-flight units,
        floored at ``base_s`` and clamped to :data:`MAX_RETRY_AFTER_S`.
        """
        with self._lock:
            backlog = self._units_in_flight
        excess = max(0.0, backlog + max(0.0, cost) - self.work_unit_budget)
        return min(MAX_RETRY_AFTER_S, max(base_s, excess / self.drain_rate))

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def units_in_flight(self) -> float:
        return self._units_in_flight

    @property
    def rejected(self) -> int:
        return self._rejected

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "mode": self.mode,
                "work_unit_budget": self.work_unit_budget,
                "max_in_flight": self.max_in_flight,
                "in_flight": self._in_flight,
                "work_units_in_flight": round(self._units_in_flight, 3),
                "rejected_total": self._rejected,
            }


class NullAdmissionController:
    """The ``off`` mode: every request admits (kept for A/B testing the
    admission-invariance property — results must not depend on the gate)."""

    mode = "off"

    def __init__(self, metrics=None) -> None:
        self._gauge = (metrics or MetricsRegistry()).gauge("service.in_flight")
        self._in_flight = 0
        self._lock = threading.Lock()

    def try_admit(
        self, cost: float = 1.0, timeout: Optional[float] = None
    ) -> Optional[AdmissionTicket]:
        with self._lock:
            self._in_flight += 1
            self._gauge.set(self._in_flight)
        return AdmissionTicket(max(0.0, float(cost)))

    def release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            self._gauge.set(self._in_flight)

    def retry_after_hint(self, base_s: float, cost: float = 0.0) -> float:
        return base_s

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def rejected(self) -> int:
        return 0

    def describe(self) -> Dict[str, object]:
        return {"mode": self.mode, "in_flight": self._in_flight}


def build_admission_controller(
    mode: str,
    max_in_flight: int,
    max_queue: int,
    work_unit_budget: float = DEFAULT_WORK_UNIT_BUDGET,
    work_unit_rate: float = DEFAULT_WORK_UNIT_RATE,
    metrics=None,
):
    """Factory behind ``serve --admission=count|cost|off``.

    ``work_unit_rate`` is :attr:`~repro.core.config.DSQLConfig.work_unit_rate`
    (units per millisecond); the cost mode drains its backlog at that rate.
    """
    if mode == "count":
        return AdmissionController(max_in_flight, max_queue, metrics=metrics)
    if mode == "cost":
        return WorkUnitAdmissionController(
            work_unit_budget=work_unit_budget,
            max_in_flight=max(max_in_flight, 1) * 8,
            drain_rate=work_unit_rate * 1000.0,
            metrics=metrics,
        )
    if mode == "off":
        return NullAdmissionController(metrics=metrics)
    raise ConfigError(
        f"unknown admission mode {mode!r}; choose from {ADMISSION_MODES}"
    )


class ClientQuotas:
    """Per-client token buckets in estimated work units.

    Each client (the ``X-Client-Id`` header) owns a bucket holding up to
    ``burst`` units, refilled at ``rate`` units/second. A request consumes
    its estimated cost; a cost above the burst is charged as *debt* (the
    bucket must be full, then goes negative), so occasional expensive
    queries pass but delay the same client's next requests proportionally
    — other clients are unaffected, which is the whole point.

    Buckets live in a bounded LRU so an adversary minting client ids
    cannot grow memory without bound; an evicted client simply starts with
    a fresh full bucket.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        max_clients: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ConfigError(f"quota rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else 10.0 * self.rate
        if self.burst <= 0:
            raise ConfigError(f"quota burst must be positive, got {self.burst}")
        self.max_clients = max_clients
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: "OrderedDict[str, Tuple[float, float]]" = OrderedDict()

    def _refill(self, client: str, now: float) -> float:
        tokens, last = self._buckets.get(client, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        return tokens

    def try_consume(self, client: str, cost: float) -> bool:
        """Charge ``cost`` units to ``client``; ``False`` = quota exceeded."""
        cost = max(0.0, float(cost))
        now = self._clock()
        with self._lock:
            tokens = self._refill(client, now)
            # A cost above the burst can never be fully covered; require a
            # full bucket and let the balance go negative (debt) instead of
            # rejecting such queries forever.
            if tokens >= min(cost, self.burst):
                tokens -= cost
                ok = True
            else:
                ok = False
            self._buckets[client] = (tokens, now)
            self._buckets.move_to_end(client)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        return ok

    def retry_after(self, client: str, cost: float) -> float:
        """Seconds until ``client`` could afford ``cost`` at the refill rate."""
        cost = max(0.0, float(cost))
        now = self._clock()
        with self._lock:
            tokens = self._refill(client, now)
        needed = min(cost, self.burst) - tokens
        if needed <= 0:
            return 0.0
        return min(MAX_RETRY_AFTER_S, needed / self.rate)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rate_units_per_s": self.rate,
                "burst_units": self.burst,
                "tracked_clients": len(self._buckets),
            }
