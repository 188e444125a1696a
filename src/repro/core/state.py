"""Shared mutable state and statistics of a DSQL run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.isomorphism.match import Mapping


@dataclass
class SearchStats:
    """Counters accumulated across both DSQL phases.

    These are the quantities the paper's efficiency discussion turns on —
    the optimization strategies (Section 5) exist precisely to shrink
    ``nodes_expanded`` — plus bookkeeping for the benchmarks.
    """

    nodes_expanded: int = 0
    embeddings_found: int = 0
    embeddings_generated_phase2: int = 0
    conflict_skips: int = 0
    bad_vertex_skips: int = 0
    bad_vertices_marked: int = 0
    candidate_cap_hits: int = 0
    phase1_levels: int = 0
    phase2_levels: int = 0
    phase2_swaps: int = 0
    phase2_ran: bool = False
    phase2_early_termination: bool = False
    budget_exhausted: bool = False
    deadline_exhausted: bool = False
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    kernel_scan: int = 0
    kernel_merge: int = 0
    kernel_bitset: int = 0
    kernel_scalar: int = 0
    kernel_cbitset: int = 0
    per_level_added: Dict[int, int] = field(default_factory=dict)

    def record_added(self, level: int) -> None:
        """Count one embedding accepted at ``level``."""
        self.embeddings_found += 1
        self.per_level_added[level] = self.per_level_added.get(level, 0) + 1

    def copy(self) -> "SearchStats":
        """An independent copy: every counter, and a ``per_level_added`` of
        its own — the one mutable field, so the two share nothing a caller
        can change. What the session memo stores and hands out on a hit."""
        twin = object.__new__(SearchStats)
        twin.__dict__.update(self.__dict__)
        twin.per_level_added = dict(self.per_level_added)
        return twin

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict copy of every counter (JSON-serializable).

        This is the per-query metrics snapshot carried by
        :class:`~repro.experiments.measurement.QueryRecord` and flushed into
        the session :class:`~repro.observability.MetricsRegistry` by
        :func:`~repro.observability.record_search_stats`.
        """
        return {
            "nodes_expanded": self.nodes_expanded,
            "embeddings_found": self.embeddings_found,
            "embeddings_generated_phase2": self.embeddings_generated_phase2,
            "conflict_skips": self.conflict_skips,
            "bad_vertex_skips": self.bad_vertex_skips,
            "bad_vertices_marked": self.bad_vertices_marked,
            "candidate_cap_hits": self.candidate_cap_hits,
            "phase1_levels": self.phase1_levels,
            "phase2_levels": self.phase2_levels,
            "phase2_swaps": self.phase2_swaps,
            "phase2_ran": self.phase2_ran,
            "phase2_early_termination": self.phase2_early_termination,
            "budget_exhausted": self.budget_exhausted,
            "deadline_exhausted": self.deadline_exhausted,
            "kernel_scan": self.kernel_scan,
            "kernel_merge": self.kernel_merge,
            "kernel_bitset": self.kernel_bitset,
            "kernel_scalar": self.kernel_scalar,
            "kernel_cbitset": self.kernel_cbitset,
            "per_level_added": dict(self.per_level_added),
        }


@dataclass
class SolutionState:
    """The evolving solution ``T`` and the consumed-vertex bookkeeping.

    Attributes
    ----------
    embeddings:
        ``T`` — accepted embeddings, as query-node-indexed tuples.
    covered:
        ``V(T)`` — vertices of the current solution.
    matched:
        Vertices *consumed* by generation (Q1Search difference (3)). During
        Phase 1 this equals ``covered``; during Phase 2 it keeps growing with
        every generated embedding while ``covered`` follows the swaps.
    """

    embeddings: List[Mapping] = field(default_factory=list)
    covered: Set[int] = field(default_factory=set)
    matched: Set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.embeddings)

    def add(self, mapping: Mapping) -> None:
        """Accept an embedding into ``T``, consuming its vertices."""
        self.embeddings.append(mapping)
        self.covered.update(mapping)
        self.matched.update(mapping)

    @property
    def coverage(self) -> int:
        """``|C(T)|``."""
        return len(self.covered)

    def is_disjoint(self) -> bool:
        """Whether all embeddings are pairwise vertex-disjoint."""
        total = sum(len(set(m)) for m in self.embeddings)
        return total == len(self.covered)
