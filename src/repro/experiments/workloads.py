"""Default experiment parameter grids (Section 7 settings, Python-scaled).

The paper runs 1000 random queries per configuration on a 3.4GHz C++ stack;
a pure-Python reproduction keeps the same *grids* (k ∈ 10..50,
|E_Q| ∈ 1..10, default |E_Q| = 5 and k = 40) but defaults to smaller query
batches. ``REPRO_QUERIES`` in the environment overrides the batch size —
set it to 1000 to run the paper-size batches.
"""

from __future__ import annotations

import os
from typing import List

DEFAULT_K = 40
"""The paper's default k."""

DEFAULT_QUERY_EDGES = 5
"""The paper's default query size |E_Q|."""

K_GRID: List[int] = [10, 20, 30, 40, 50]
"""k sweep of Figures 6 and 8."""

QUERY_SIZE_GRID: List[int] = list(range(1, 11))
"""|E_Q| sweep of Figures 6 and 8."""

LABEL_DENSITY_GRID: List[float] = [0.05e-3, 0.1e-3, 0.15e-3, 0.2e-3]
"""Label-density sweep of Figure 7."""


def batch_size(default: int = 20) -> int:
    """Per-configuration query count (env ``REPRO_QUERIES`` overrides)."""
    raw = os.environ.get("REPRO_QUERIES", "")
    if raw:
        value = int(raw)
        if value < 1:
            raise ValueError(f"REPRO_QUERIES must be positive, got {value}")
        return value
    return default


def bench_scale_override() -> float:
    """Dataset scale multiplier (env ``REPRO_SCALE``, default 1.0).

    Applied on top of each profile's ``bench_scale``; e.g. ``REPRO_SCALE=10``
    runs the Figure 6 datasets 10x larger than the bench default.
    """
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return 1.0
    value = float(raw)
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


FIG6_DATASETS = ["wordnet", "epinion", "dblp", "youtube", "dbpedia", "imdb"]
"""Figure 6's dataset panel."""

FIG8_DATASETS = ["yeast", "human", "uspatent"]
"""Figure 8's dataset panel."""

FIG9_DATASETS = ["youtube", "human"]
"""Figure 9's ablation datasets."""
