"""The one join rule, and the kernel kinds the dispatch counters report.

Both engines join a query node on Section 5.1's rule: a matched query
neighbor's constraint is its data vertex's neighbor set
(:meth:`~repro.graph.labeled_graph.LabeledGraph.neighbor_set`), intersected
with the node's candidate pool (its set view). :func:`intersect_sets` is
that intersection, ascending — the order of label buckets, adjacency rows
and candidate pools — so every engine emits candidates in one order.

:func:`bitset_and_members` and :func:`intersect_sorted` are what
perfbench's ``kernels.*.ns_per_elem`` probes time; no engine calls them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Iterable, List, Sequence

GALLOP_RATIO = 8
"""Size ratio at which :func:`intersect_sorted` switches from the merge
regime to galloping binary search.

With ``|b| >= GALLOP_RATIO * |a|`` the ``|a| * log |b|`` bisect probes beat
scanning (or hashing) the long side; below it the hash-merge regime wins
because CPython's set probes are cheaper than Python-level binary search
bookkeeping.
"""

SCAN = "scan"
"""Kernel kind: a depth or frame with no matched query neighbor iterates
its whole candidate pool."""

MERGE = "merge"
"""Kernel kind: a pool intersected with matched neighbors' sets
(``expand_pool`` past the root: :func:`intersect_sets` over the neighbor
sets and the pool's set view; a localized level-engine frame: the father's
row filtered by the same view,
:meth:`~repro.indexes.candidates.CandidateIndex.localized`)."""

BITSET = "bitset"
"""Kernel kind: a level-engine frame with two or more matched query
neighbors besides its father, joined on their neighbor sets."""

SCALAR = "scalar"
"""Kernel kind: a level-engine frame with at most one matched query
neighbor besides its father — at most one set probe per candidate."""

CBITSET = "cbitset"
"""Kernel kind that never dispatches: ``SearchStats.kernel_cbitset`` is
always 0 and is kept because perfbench harness 1.0 reads every kind."""

KERNEL_KINDS = (SCAN, MERGE, BITSET, SCALAR, CBITSET)
"""Every kernel kind, as reported by the ``kernel.dispatch.*`` counters."""


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Intersection of two ascending sequences, returned ascending.

    Two regimes, crossed over on the size ratio (:data:`GALLOP_RATIO`):

    * **merge** — probe each element of the smaller side against a hash of
      the larger (the fastest merge substitute in CPython: membership tests
      run in C while a hand-written two-pointer merge pays per-element
      interpreter overhead);
    * **gallop** — when one side is much larger, binary-search each element
      of the smaller side into the larger with a moving lower bound, so the
      cost is ``|small| * log |large|`` and never touches most of the long
      side.

    Both inputs must be strictly ascending (the repo-wide invariant for
    adjacency rows and candidate pools); the result then equals the seed's
    filter-by-membership lists element for element.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(b) >= GALLOP_RATIO * len(a):
        out: List[int] = []
        lo, hi = 0, len(b)
        for v in a:
            lo = bisect_left(b, v, lo, hi)
            if lo == hi:
                break
            if b[lo] == v:
                out.append(v)
                lo += 1
        return out
    bset = set(b)
    return [v for v in a if v in bset]


def intersect_sets(first: AbstractSet[int], *rest: AbstractSet[int]) -> List[int]:
    """Ascending members common to every given set.

    Folds left to right from a ``set`` copy of ``first``, each step one
    C-level ``&`` that walks the smaller operand and probes the larger —
    ``min`` of the two sizes, never the long side — and sorts once at the
    end (results are a handful of vertices). Pass the operands smallest
    first, so the copy and the running intersection start small. They are
    the graph's neighbor key views
    (:meth:`~repro.graph.labeled_graph.LabeledGraph.neighbor_set`) and the
    pools' frozenset views, kept beside their memo entries. The copy keeps
    every step ``O(min)``: a key view ``&`` a frozenset walks the frozenset
    whole, a ``set`` ``&`` either walks the smaller side.
    """
    joined = set(first)
    for other in rest:
        joined = joined & other
    return sorted(joined)


def bitset_of(vertices: Iterable[int]) -> int:
    """Big-int bitset with bit ``v`` set for every vertex in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bitset_members(mask: int) -> List[int]:
    """Set bit positions of ``mask``, ascending (lowest-set-bit extraction)."""
    out: List[int] = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def bitset_and_members(*masks: int) -> List[int]:
    """Members of the AND of one or more bitsets, ascending.

    ``bitset_and_members(adj(v1), adj(v2), cand_mask)`` is the vertex list
    adjacent to both ``v1`` and ``v2`` and inside the candidate pool — one
    call replacing a set-intersection chain plus a sort.
    """
    if not masks:
        return []
    mask = masks[0]
    for other in masks[1:]:
        mask &= other
        if not mask:
            return []
    return bitset_members(mask)
