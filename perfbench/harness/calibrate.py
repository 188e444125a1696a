"""Machine-speed calibration: a frozen kernel timed between chunks of work.

The box this benchmark runs on changes speed by a quarter or more for tens
of seconds at a time (CPU time moves with wall time, so it is the core that
slows, not the scheduler). No amount of work that fits a run averages that
out, so the harness times a fixed kernel of its own before and after every
chunk of ops and scales the chunk's times to a nominal machine::

    reported = measured * nominal_kernel_ms / measured_kernel_ms

The kernel belongs to the benchmark and never changes with the program
under test: a small labeled-path matcher over the workload's own graph,
built from the same edge list — neighbour lookups across a large adjacency
table, set membership, big-int bitset ors, the mix the engine itself runs.
On this box ten-second windows of raw work spread 0.77–1.25x around their
median while the same windows divided by the kernel stayed within
0.98–1.03x.
"""

from __future__ import annotations

import random
import time
from typing import List, Sequence, Tuple

KERNEL_SEEDS = 600
"""Start vertices of one kernel run (fixed, independent of ``--seed``)."""


class Calibrator:
    """Owns the kernel's private copy of the graph and times the kernel."""

    def __init__(
        self,
        labels: Sequence[str],
        edges: Sequence[Tuple[int, int]],
        nominal_ms: float,
    ) -> None:
        rows: List[List[int]] = [[] for _ in labels]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        self.adjacency = [tuple(sorted(row)) for row in rows]
        self.labels = list(labels)
        self.seeds = random.Random("perfbench-calibration").sample(
            range(len(labels)), min(KERNEL_SEEDS, len(labels))
        )
        self.nominal_ms = nominal_ms
        self.readings: List[float] = []

    def kernel(self) -> int:
        """Frozen work: labeled 2-paths and triangle closures around the seeds."""
        adjacency, labels = self.adjacency, self.labels
        found = 0
        for a in self.seeds:
            row_a = adjacency[a]
            members_a = set(row_a)
            mask_a = 0
            for x in row_a[:64]:
                mask_a |= 1 << x
            label_a = labels[a]
            for b in row_a[:8]:
                if labels[b] == label_a:
                    continue
                row_b = adjacency[b]
                found += len([c for c in row_b[:64] if c in members_a])
                mask_b = 0
                for x in row_b[:16]:
                    mask_b |= 1 << x
                if mask_a & mask_b:
                    found += 1
                label_b = labels[b]
                for c in row_b[:6]:
                    if c != a and labels[c] != label_b:
                        found += 1
        return found

    def measure(self) -> float:
        """Kernel time in ms: the faster of two runs (a stall hits one, not both)."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        reading = best * 1e3
        self.readings.append(reading)
        return reading

    def factor(self, before_ms: float, after_ms: float) -> float:
        """Scale for times measured between two readings (nominal / measured speed)."""
        return self.nominal_ms / ((before_ms + after_ms) / 2.0)
