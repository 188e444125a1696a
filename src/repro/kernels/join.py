"""The three join kernels and their selection constants.

All kernels operate on the two per-graph adjacency encodings exposed by
:class:`~repro.indexes.graph_cache.GraphIndexCache`:

* **sorted adjacency slices** — the graph's ascending neighbor tuples
  (:meth:`~repro.indexes.graph_cache.GraphIndexCache.adjacency_slice`), and
  the same rows as hash sets
  (:meth:`~repro.graph.labeled_graph.LabeledGraph.neighbor_set`);
* **neighbor bitsets** — Python big-int masks with bit ``v`` set per
  neighbor ``v`` (:meth:`~repro.indexes.graph_cache.GraphIndexCache.
  adjacency_mask`). Arbitrary-precision ints make the AND of two masks one
  C-level word sweep regardless of vertex count.

Every kernel returns vertices in **ascending id order** — exactly the order
the scalar paths produce (label buckets, CSR rows, and candidate pools are
all sorted) — which is what makes them drop-in replacements under the
bit-identity contract.
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

BITSET_MIN_POOL = 64
"""Minimum candidate-pool size for a compiled plan to pick the bitset
kernel for a search depth.

Below this the fixed cost of ANDing the neighbor bitsets is not amortized and
merge (or a scan) is cheaper. Were it wrong, perfbench's ``engine_heavy`` would
show it: ``kernels.dispatch.bitset_per_op`` and ``core.expansions_per_ms``.
"""

SCAN = "scan"
"""Kernel kind: iterate a full candidate pool (depths with no matched
query neighbor — nothing to intersect against)."""

MERGE = "merge"
"""Kernel kind: adjacency intersected with the candidate pool, ascending
(:func:`intersect_sets` over the storage's neighbor sets and the plan's pool
set; :func:`intersect_sorted` is the sorted-sequence form of the same)."""

BITSET = "bitset"
"""Kernel kind: big-int AND of neighbor bitsets, members enumerated or
probed bit-by-bit."""

SCALAR = "scalar"
"""Kernel kind: the seed per-neighbor ``has_edge`` probing (the fallback
when too few query neighbors are matched to amortize a kernel: at most one
set probe per candidate in the level engine, none where localization
already joined the father)."""

CBITSET = "cbitset"
"""Kernel kind: big-int AND over twin-**class** bitsets (compression-enabled
plans only). The join constraint is folded at ``num_classes`` bits instead
of ``num_vertices`` and admitted classes expand to their sorted members, so
the per-frame mask work shrinks by the compression ratio while the emitted
vertex list stays byte-equal to :data:`BITSET`'s."""

CBITSET_MAX_RATIO = 0.75
"""Maximum ``num_classes(pool) / len(pool)`` for a compression-enabled plan
to upgrade a :data:`BITSET` depth to :data:`CBITSET`.

Near 1.0 the pool has almost no twins, so folding class masks plus the
member-merge costs more than the plain vertex-bitset AND; the cutoff keeps
compiled plans on :data:`BITSET` for low-redundancy graphs. Were it too high,
``kernels.dispatch.cbitset_per_op`` would turn non-zero on twin-free graphs.
"""

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

    Folds left to right, each step one C-level ``&`` that walks the smaller
    operand and probes the larger — ``min`` of the two sizes, never the long
    side — and sorts once at the end (results are a handful of vertices).
    With more than two sets, pass them smallest first so the running
    intersection starts small. The sets are the graph's own
    (:meth:`~repro.graph.labeled_graph.LabeledGraph.neighbor_set`) and the plan's
    memoized pool sets; nothing is built per call but the result.
    """
    for other in rest:
        first = first & other
    return sorted(first)


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


def joinable_kernel(masks: Sequence[int]) -> int:
    """AND of adjacency bitsets — the combined join constraint.

    Bit ``v`` of the result is set iff ``v`` is adjacent to *every* vertex
    whose mask was passed, so one precomputed result per search frame
    replaces the per-candidate ``has_edge`` loop: the per-candidate test
    collapses to ``mask >> v & 1``. An empty ``masks`` returns ``-1``
    (all-ones, the AND identity) — callers dispatch that case to the plain
    injectivity check instead of probing an unbounded mask.
    """
    out = -1
    for m in masks:
        out &= m
    return out
