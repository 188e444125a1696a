"""Per-query measurement records and their aggregation.

The paper reports, per query-set: mean runtime, mean coverage (``# Nodes``),
mean approximation ratio, and a ``MAX`` reference (the coverage when the
solution is provably optimal, else the ``k*q`` bound). These records carry
exactly those quantities.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class QueryRecord:
    """One query's measured outcome.

    ``metrics`` is the query's :meth:`~repro.core.state.SearchStats.snapshot`
    (expansion/prune/swap counters) when the solver exposes one — DSQL
    always does; baselines leave it ``None``. For ``from_cache`` records the
    snapshot describes the *original* search that populated the memo entry.
    """

    seconds: float
    coverage: int
    max_value: int
    num_embeddings: int
    optimal: bool = False
    budget_exhausted: bool = False
    deadline_exhausted: bool = False
    from_cache: bool = False
    metrics: Optional[Dict[str, object]] = None

    @property
    def ratio(self) -> float:
        """``coverage / max_value`` (1.0 when nothing could be covered)."""
        return self.coverage / self.max_value if self.max_value else 1.0


@dataclass
class BatchSummary:
    """Aggregate of a query batch (one point of a paper figure)."""

    label: str
    records: List[QueryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: QueryRecord) -> None:
        """Append one query's record."""
        self.records.append(record)

    @property
    def mean_seconds(self) -> float:
        """Average per-query runtime in seconds."""
        return statistics.fmean(r.seconds for r in self.records) if self.records else 0.0

    @property
    def mean_millis(self) -> float:
        """Average per-query runtime in milliseconds (the paper's unit)."""
        return self.mean_seconds * 1000.0

    @property
    def mean_coverage(self) -> float:
        """Average ``|C(A)|`` — the "# Nodes" axis of Figures 6 and 8."""
        return statistics.fmean(r.coverage for r in self.records) if self.records else 0.0

    @property
    def mean_max(self) -> float:
        """Average MAX reference value."""
        return statistics.fmean(r.max_value for r in self.records) if self.records else 0.0

    @property
    def mean_ratio(self) -> float:
        """Average per-query approximation-ratio lower bound."""
        return statistics.fmean(r.ratio for r in self.records) if self.records else 1.0

    @property
    def optimal_fraction(self) -> float:
        """Fraction of queries solved provably optimally."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.optimal) / len(self.records)

    @property
    def mean_embeddings(self) -> float:
        """Average number of returned embeddings."""
        return (
            statistics.fmean(r.num_embeddings for r in self.records)
            if self.records
            else 0.0
        )

    @property
    def any_budget_exhausted(self) -> bool:
        """Whether any query tripped its search budget (paper: the 5h rows)."""
        return any(r.budget_exhausted for r in self.records)

    @property
    def any_deadline_exhausted(self) -> bool:
        """Whether any query was truncated by its wall-clock time budget."""
        return any(r.deadline_exhausted for r in self.records)

    @property
    def cache_hits(self) -> int:
        """How many queries were answered from the session's result memo."""
        return sum(1 for r in self.records if r.from_cache)
