"""Join kernels for the enumeration hot path.

Every embedding the engines emit is paid for in two inner loops: the
per-candidate ``has_edge`` probe loop of the joinable test and the
per-level list/set intersections that build candidate pools (``Rcand``,
``TcandS``). This package rewrites both as *adjacency intersections* —
the formulation of the paper's localized search (Section 5.1) — with three
kernels that all emit vertices in ascending id order, so swapping them in
for the scalar paths changes nothing observable (the bit-identity contract
pinned by ``tests/property/test_plan_equivalence.py``).

See ``docs/performance.md`` for the selection heuristic; the measured costs
are perfbench's ``kernels.*.ns_per_elem`` and ``kernels.dispatch.*_per_op``.
"""

from repro.kernels.join import (
    BITSET,
    BITSET_MIN_POOL,
    CBITSET,
    CBITSET_MAX_RATIO,
    GALLOP_RATIO,
    KERNEL_KINDS,
    MERGE,
    SCALAR,
    SCAN,
    bitset_and_members,
    bitset_members,
    bitset_of,
    intersect_sets,
    intersect_sorted,
    joinable_kernel,
)

__all__ = [
    "BITSET",
    "BITSET_MIN_POOL",
    "CBITSET",
    "CBITSET_MAX_RATIO",
    "GALLOP_RATIO",
    "KERNEL_KINDS",
    "MERGE",
    "SCALAR",
    "SCAN",
    "bitset_and_members",
    "bitset_members",
    "bitset_of",
    "intersect_sets",
    "intersect_sorted",
    "joinable_kernel",
]
