"""Shared helpers for the benchmark suite.

Each benchmark module regenerates one table or figure of the paper. The
rendered report is printed (visible with ``pytest -s`` or in the benchmark
log) *and* written to ``benchmarks/out/<name>.txt`` so a full
``pytest benchmarks/ --benchmark-only`` run leaves the whole set of
paper-style artifacts on disk.

The numbers come from :mod:`repro.experiments.paper`, which times every
query batch; a bench script chooses its inputs, renders and asserts shapes.

Environment knobs (see :mod:`repro.experiments.workloads`):

* ``REPRO_QUERIES`` — queries per configuration (default: small batches);
* ``REPRO_SCALE``   — multiplier on each dataset's bench scale.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.datasets.registry import get_profile, make_dataset
from repro.experiments.workloads import batch_size, bench_scale_override
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.generator import query_set

OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under ``benchmarks/out/``."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@functools.lru_cache(maxsize=None)
def bench_graph(name: str, seed: int = 0) -> LabeledGraph:
    """The dataset stand-in at its bench scale (cached per session)."""
    scale = get_profile(name).bench_scale * bench_scale_override()
    return make_dataset(name, scale=scale, seed=seed)


@functools.lru_cache(maxsize=None)
def bench_queries(name: str, num_edges: int, count: int, seed: int = 0):
    """A cached query batch on the named dataset's bench graph."""
    return tuple(query_set(bench_graph(name), num_edges, count, seed=seed))


def queries_per_point(default: int = 6) -> int:
    """Batch size per figure point (env-overridable)."""
    return batch_size(default)
