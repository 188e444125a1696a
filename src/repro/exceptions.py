"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples: referencing a vertex id outside ``[0, n)``, adding a self-loop
    to a simple graph, or constructing a graph whose label table does not
    cover every vertex.
    """


class QueryError(ReproError):
    """Raised when a query graph is unusable for subgraph search.

    A query must be non-empty and connected; DSQL's level-wise search and the
    ``qfList`` father-node construction both rely on connectivity.
    """


class InvalidQueryError(QueryError):
    """Raised when a query graph is disconnected (or otherwise unsearchable).

    Subclasses :class:`QueryError` so every existing handler — including the
    service layer's 400 ``invalid_query`` mapping — already catches it; the
    typed form additionally carries the offending :attr:`component` so
    callers can report *which* nodes are unreachable from the search root.
    """

    def __init__(self, message: str, component=()):
        super().__init__(message)
        self.component = tuple(component)


class ConfigError(ReproError):
    """Raised for invalid algorithm configuration values.

    Examples: ``k < 1``, a negative swap parameter ``alpha``, or enabling the
    bad-vertex strategy without the conflict-table strategy it builds on.
    """


class DatasetError(ReproError):
    """Raised when a dataset profile or generator receives bad parameters."""


class BudgetExceeded(ReproError):
    """Raised internally when a search exceeds its node-visit budget.

    The public API converts this into a truncated-but-valid result; it only
    escapes to callers that explicitly request ``raise_on_budget=True``.
    """


class DeadlineExceeded(BudgetExceeded):
    """Raised internally when a search exceeds its wall-clock deadline.

    Subclasses :class:`BudgetExceeded` so every truncation path that already
    handles a tripped node budget (both DSQL phases, the SQ engines) handles
    the time budget identically; the two cases stay distinguishable through
    ``stats.deadline_exhausted`` vs ``stats.budget_exhausted``.
    """


class StaleSegmentError(ReproError):
    """Raised when a pool worker cannot reach the parent graph's version.

    A worker process holds its own copy of the graph at some
    ``(epoch, delta_seq)`` and catches up by replaying the parent's mutation
    log. Below the log's floor (a compaction dropped ops the copy never saw),
    on another cache's epoch, a gap in the tail or an op that does not
    re-apply, nothing is left to replay: the copy is stale, and this is raised
    instead of answering from it. The name is from the shared-memory segments
    such copies once came out of.
    """
