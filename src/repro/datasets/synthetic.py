"""Synthetic graph topologies standing in for the paper's real datasets.

The paper's datasets (Table 1) are protein networks, lexical networks, and
social/citation/collaboration networks. What drives DSQL's behaviour on them
is density (average degree), degree skew, and the label distribution — so
the stand-ins match those statistics:

* :func:`configuration_graph` — stub-pairing configuration model over an
  arbitrary expected degree sequence (the shared workhorse);
* :func:`power_law_graph` — heavy-tailed degrees for the social graphs
  (Epinion, DBLP, Youtube, Dbpedia, USpatent, Wordnet);
* :func:`lognormal_graph` — mild skew for the biological graphs
  (Yeast, Human);
* :func:`bipartite_affiliation_graph` — two-mode person/work topology for
  IMDB (people attach to movies/series; no person-person edges), which is
  what gives IMDB its low 3.34 average degree at 4.5M vertices.

All generators take a seed and return plain edge lists so labeling composes
independently (see :mod:`repro.datasets.labels`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError

Edge = Tuple[int, int]


def configuration_graph(
    degrees: Sequence[int],
    seed: Optional[int] = None,
) -> List[Edge]:
    """Simple graph from a degree sequence by stub pairing.

    Stubs are shuffled and paired; self-loops and duplicate edges are
    dropped, so realized degrees sit slightly below the request — an
    accepted property of the model, and irrelevant at our tolerances (the
    registry checks average degree within ~10%).
    """
    stubs: List[int] = []
    for v, d in enumerate(degrees):
        if d < 0:
            raise DatasetError(f"negative degree {d} for vertex {v}")
        stubs.extend([v] * d)
    rng = random.Random(seed)
    rng.shuffle(stubs)
    edges: set[Edge] = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def _scaled_integer_degrees(weights: np.ndarray, avg_degree: float) -> List[int]:
    """Scale positive weights to integers averaging ``avg_degree``.

    Stochastic rounding keeps the mean unbiased; every vertex gets degree
    >= 1 so the graph has no isolated vertices (matching the connected
    cores of the real datasets).
    """
    weights = np.asarray(weights, dtype=float)
    weights = weights * (avg_degree * len(weights) / weights.sum())
    floors = np.floor(weights)
    frac = weights - floors
    rng = np.random.default_rng(12345)
    bumps = rng.random(len(weights)) < frac
    degrees = (floors + bumps).astype(int)
    degrees[degrees < 1] = 1
    return degrees.tolist()


def power_law_graph(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.5,
    seed: Optional[int] = None,
) -> List[Edge]:
    """Heavy-tailed configuration graph (Pareto weights, tail ``exponent``)."""
    if num_vertices < 2:
        raise DatasetError(f"need >= 2 vertices, got {num_vertices}")
    if avg_degree <= 0:
        raise DatasetError(f"avg_degree must be positive, got {avg_degree}")
    if exponent <= 1:
        raise DatasetError(f"power-law exponent must be > 1, got {exponent}")
    rng = np.random.default_rng(seed)
    weights = (1.0 - rng.random(num_vertices)) ** (-1.0 / (exponent - 1.0))
    # Cap the tail so a single hub cannot demand more stubs than the graph has.
    weights = np.minimum(weights, np.sqrt(num_vertices * avg_degree))
    degrees = _scaled_integer_degrees(weights, avg_degree)
    return configuration_graph(degrees, seed=seed)


def lognormal_graph(
    num_vertices: int,
    avg_degree: float,
    sigma: float = 0.6,
    seed: Optional[int] = None,
) -> List[Edge]:
    """Mildly skewed configuration graph (lognormal weights)."""
    if num_vertices < 2:
        raise DatasetError(f"need >= 2 vertices, got {num_vertices}")
    if avg_degree <= 0:
        raise DatasetError(f"avg_degree must be positive, got {avg_degree}")
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=num_vertices)
    degrees = _scaled_integer_degrees(weights, avg_degree)
    return configuration_graph(degrees, seed=seed)


def bipartite_affiliation_graph(
    num_people: int,
    num_works: int,
    avg_degree: float,
    seed: Optional[int] = None,
) -> Tuple[int, List[Edge]]:
    """Two-mode topology: people ``0..num_people-1`` attach to works.

    Returns ``(num_vertices, edges)`` with works numbered after people.
    Credit counts per person follow a discrete power law (Zipf, exponent
    ~2.5): real affiliation graphs are dominated by one-credit careers with
    a thin prolific tail, and that one-credit mass is what gives popular
    works their large interchangeable casts — the structural redundancy the
    BoostIso-style twin compression collapses. Popular works attract
    proportionally more people (preferential attachment by work weight).
    """
    if num_people < 1 or num_works < 1:
        raise DatasetError("need at least one person and one work")
    total = num_people + num_works
    target_edges = int(avg_degree * total / 2)
    rng = np.random.default_rng(seed)
    work_weights = (1.0 - rng.random(num_works)) ** (-1.0 / 1.5)
    work_weights /= work_weights.sum()
    # Zipf(2.5) has mean ~1.95, matching the ~1.9 credits/person the IMDB
    # statistics imply (|E| / 0.9|V|); capped so one career cannot span a
    # material fraction of all works.
    credits = np.minimum(rng.zipf(2.5, size=num_people), max(2, num_works // 2))
    stubs = np.repeat(np.arange(num_people), credits)
    rng.shuffle(stubs)
    works = rng.choice(num_works, size=len(stubs), p=work_weights)
    edges: set[Edge] = set()
    for p, w in zip(stubs, works):
        edges.add((int(p), num_people + int(w)))
        if len(edges) >= target_edges:
            break
    while len(edges) < target_edges:  # top up duplicate-collision losses
        p = int(rng.integers(0, num_people))
        w = int(rng.choice(num_works, p=work_weights))
        edges.add((p, num_people + w))
    return total, sorted(edges)
