"""Join kernels for the enumeration hot path.

Every embedding the engines emit is paid for in the per-depth
intersections that build candidate lists (``Rcand``, ``TcandS``). Both
engines compute them by one rule — the formulation of the paper's localized
search (Section 5.1): a matched query neighbor's constraint is its neighbor
set, intersected with the candidate pool in ascending vertex order
(:func:`intersect_sets`). The five ``kernel.dispatch.*`` kinds name where a
frame or depth joined, not a choice among mechanisms.

See ``docs/performance.md``; the measured costs are perfbench's
``kernels.*.ns_per_elem`` and ``kernels.dispatch.*_per_op``.
"""

from repro.kernels.join import (
    GALLOP_RATIO,
    KERNEL_KINDS,
    MERGE,
    SCAN,
    bitset_and_members,
    bitset_members,
    bitset_of,
    intersect_sets,
    intersect_sorted,
)

__all__ = [
    "GALLOP_RATIO",
    "KERNEL_KINDS",
    "MERGE",
    "SCAN",
    "bitset_and_members",
    "bitset_members",
    "bitset_of",
    "intersect_sets",
    "intersect_sorted",
]
