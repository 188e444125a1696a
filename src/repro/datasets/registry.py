"""Profiles of the paper's nine datasets and their synthetic stand-ins.

Each :class:`DatasetProfile` records the published statistics of one real
dataset (Table 1) plus the topology/label recipe of its stand-in. Calling
:func:`make_dataset` builds a :class:`LabeledGraph` matched to those
statistics at an arbitrary ``scale`` (vertex-count multiplier); benchmark
defaults (``bench_scale``) keep the biggest graphs laptop-sized while the
full-scale parameters remain one argument away.

Substitution rationale (DESIGN.md §4): DSQL's behaviour is governed by label
selectivity, degree distribution, and density, which the stand-ins match;
four of the paper's datasets carried synthetic uniform labels to begin with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datasets import labels as label_schemes
from repro.datasets import synthetic
from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class DatasetProfile:
    """One dataset's published statistics plus its stand-in recipe.

    ``topology`` is one of ``"power_law"``, ``"lognormal"``, ``"bipartite"``.
    ``label_scheme`` is one of ``"uniform"``, ``"zipf"``, ``"skewed"``.
    ``synthetic_labels`` marks the datasets the paper itself labeled
    synthetically (the ``*`` rows of Table 1).
    """

    name: str
    num_vertices: int
    num_edges: int
    num_labels: int
    avg_degree: float
    topology: str
    label_scheme: str
    synthetic_labels: bool
    bench_scale: float
    description: str

    def scaled_vertices(self, scale: float) -> int:
        """Vertex count at ``scale`` (minimum 50 to stay a usable graph)."""
        return max(50, int(self.num_vertices * scale))

    def scaled_labels(self, scale: float) -> int:
        """Label count at ``scale``.

        Label-set sizes shrink with the square root of the scale: halving
        the graph while halving the labels would keep per-label bucket sizes
        constant and make small graphs behave like dense forests of tiny
        buckets; the square-root compromise keeps *selectivity* (bucket size
        relative to graph size) drifting slowly, which is the regime the
        paper's queries live in.
        """
        if scale >= 1.0:
            return self.num_labels
        return max(2, int(round(self.num_labels * scale**0.5)))


PROFILES: Dict[str, DatasetProfile] = {
    profile.name: profile
    for profile in [
        DatasetProfile(
            name="yeast",
            num_vertices=3101,
            num_edges=12519,
            num_labels=31,
            avg_degree=8.07,
            topology="lognormal",
            label_scheme="zipf",
            synthetic_labels=False,
            bench_scale=1.0,
            description="protein-protein interaction network",
        ),
        DatasetProfile(
            name="human",
            num_vertices=4675,
            num_edges=86282,
            num_labels=90,
            avg_degree=36.92,
            topology="lognormal",
            label_scheme="zipf",
            synthetic_labels=False,
            bench_scale=1.0,
            description="dense protein-protein interaction network",
        ),
        DatasetProfile(
            name="wordnet",
            num_vertices=76854,
            num_edges=213308,
            num_labels=5,
            avg_degree=5.55,
            topology="power_law",
            label_scheme="uniform",
            synthetic_labels=False,
            bench_scale=0.1,
            description="lexical network with only 5 labels",
        ),
        DatasetProfile(
            name="epinion",
            num_vertices=75879,
            num_edges=405741,
            num_labels=50,
            avg_degree=10.69,
            topology="power_law",
            label_scheme="uniform",
            synthetic_labels=True,
            bench_scale=0.1,
            description="who-trusts-whom social network",
        ),
        DatasetProfile(
            name="dblp",
            num_vertices=317080,
            num_edges=1049866,
            num_labels=50,
            avg_degree=6.62,
            topology="power_law",
            label_scheme="uniform",
            synthetic_labels=True,
            bench_scale=0.03,
            description="co-authorship network",
        ),
        DatasetProfile(
            name="youtube",
            num_vertices=1100000,
            num_edges=2900000,
            num_labels=100,
            avg_degree=5.26,
            topology="power_law",
            label_scheme="uniform",
            synthetic_labels=True,
            bench_scale=0.01,
            description="video social network",
        ),
        DatasetProfile(
            name="dbpedia",
            num_vertices=809597,
            num_edges=3720000,
            num_labels=100,
            avg_degree=9.19,
            topology="power_law",
            label_scheme="uniform",
            synthetic_labels=True,
            bench_scale=0.01,
            description="RDF person graph crawled from Wikipedia",
        ),
        DatasetProfile(
            name="imdb",
            num_vertices=4490000,
            num_edges=7490000,
            num_labels=123,
            avg_degree=3.34,
            topology="bipartite",
            label_scheme="skewed",
            synthetic_labels=False,
            bench_scale=0.002,
            description="movie/person affiliation graph, 90% of labels in 3 values",
        ),
        DatasetProfile(
            name="uspatent",
            num_vertices=3770000,
            num_edges=16500000,
            num_labels=388,
            avg_degree=8.75,
            topology="power_law",
            label_scheme="zipf",
            synthetic_labels=False,
            bench_scale=0.002,
            description="patent citation network",
        ),
    ]
}


def dataset_names() -> List[str]:
    """All registered dataset names."""
    return sorted(PROFILES)


def get_profile(name: str) -> DatasetProfile:
    """Profile lookup with a helpful error."""
    try:
        return PROFILES[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None


def make_dataset(
    name: str,
    scale: Optional[float] = None,
    seed: int = 0,
    num_labels: Optional[int] = None,
) -> LabeledGraph:
    """Build the synthetic stand-in for dataset ``name``.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    scale:
        Vertex-count multiplier; defaults to the profile's ``bench_scale``.
        Pass ``1.0`` for full published size.
    seed:
        Seed for both topology and labels (deterministic builds).
    num_labels:
        Override the label-set size — the lever of the Figure 7
        label-density experiment.
    """
    profile = get_profile(name)
    scale = profile.bench_scale if scale is None else scale
    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    n = profile.scaled_vertices(scale)
    m_labels = num_labels if num_labels is not None else profile.scaled_labels(scale)

    if profile.topology == "power_law":
        edges = synthetic.power_law_graph(n, profile.avg_degree, seed=seed)
        total = n
    elif profile.topology == "lognormal":
        edges = synthetic.lognormal_graph(n, profile.avg_degree, seed=seed)
        total = n
    elif profile.topology == "bipartite":
        # 90% of IMDB vertices are people under 3 labels (actor/actress/
        # director); movies/series carry the remaining genre labels.
        num_people = int(n * 0.9)
        num_works = n - num_people
        total, edges = synthetic.bipartite_affiliation_graph(
            num_people, num_works, profile.avg_degree, seed=seed
        )
    else:  # pragma: no cover - profiles are statically defined
        raise DatasetError(f"unknown topology {profile.topology!r}")

    if profile.label_scheme == "uniform":
        labels = label_schemes.uniform_labels(total, m_labels, seed=seed + 1)
    elif profile.label_scheme == "zipf":
        labels = label_schemes.zipf_labels(total, m_labels, exponent=1.0, seed=seed + 1)
    elif profile.label_scheme == "skewed":
        # Two-mode labeling: the person partition takes the 3 dominant
        # labels, the work partition takes the rest of the alphabet. This
        # both realizes the 90% skew and keeps the affiliation structure
        # label-consistent (person labels never appear on works).
        num_people = int(n * 0.9)
        person_labels = label_schemes.uniform_labels(num_people, 3, seed=seed + 1)
        work_count = total - num_people
        work_labels = label_schemes.uniform_labels(
            work_count, max(1, m_labels - 3), seed=seed + 2, prefix="W"
        )
        labels = person_labels + work_labels
    else:  # pragma: no cover
        raise DatasetError(f"unknown label scheme {profile.label_scheme!r}")

    return LabeledGraph(labels, edges, name=f"{name}@{scale:g}")
