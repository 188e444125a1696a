"""Vertex-label assignment schemes.

The paper labels four of its datasets synthetically ("we have assigned a
label for each vertex from a synthetic label set of sizes 100, 50, 50, and
100, respectively, with a uniform random distribution") and notes IMDB's
real labels are highly skewed (90% of vertices under 3 labels). The uniform
scheme is here, plus a Zipf scheme for moderately skewed catalogs like
USpatent's 388 patent classes; the registry builds IMDB's skew from uniform
labels over the two partitions of its affiliation graph.

Labels are strings ``"L0" .. "L{m-1}"`` by default so they cannot collide
with integer vertex ids in logs and fixtures.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.exceptions import DatasetError


def label_names(num_labels: int, prefix: str = "L") -> List[str]:
    """The canonical label alphabet ``[L0, L1, ...]``."""
    if num_labels < 1:
        raise DatasetError(f"need at least one label, got {num_labels}")
    return [f"{prefix}{i}" for i in range(num_labels)]


def uniform_labels(
    num_vertices: int,
    num_labels: int,
    seed: Optional[int] = None,
    prefix: str = "L",
) -> List[str]:
    """Uniform random labels — the paper's synthetic scheme."""
    rng = random.Random(seed)
    names = label_names(num_labels, prefix)
    return [names[rng.randrange(num_labels)] for _ in range(num_vertices)]


def zipf_labels(
    num_vertices: int,
    num_labels: int,
    exponent: float = 1.0,
    seed: Optional[int] = None,
    prefix: str = "L",
) -> List[str]:
    """Zipf-distributed labels: label ``i`` has weight ``(i+1)^-exponent``."""
    if exponent < 0:
        raise DatasetError(f"zipf exponent must be >= 0, got {exponent}")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_labels + 1, dtype=float) ** (-exponent)
    weights /= weights.sum()
    names = label_names(num_labels, prefix)
    draws = rng.choice(num_labels, size=num_vertices, p=weights)
    return [names[i] for i in draws]


def relabel_to_density(
    num_vertices: int,
    label_density: float,
    seed: Optional[int] = None,
    prefix: str = "L",
) -> List[str]:
    """Uniform labels sized to hit ``|Sigma| / |V| = label_density``.

    This is the knob of the Figure 7 experiment, which sweeps densities
    ``0.05e-3 .. 0.2e-3`` on fixed topologies. At least one label is used.
    """
    if label_density <= 0:
        raise DatasetError(f"label density must be positive, got {label_density}")
    num_labels = max(1, round(label_density * num_vertices))
    return uniform_labels(num_vertices, num_labels, seed=seed, prefix=prefix)
