"""Dataset substrate: synthetic topologies, label schemes, paper profiles."""

from repro.datasets.examples import dbpedia_flavor, figure1, figure2, imdb_flavor
from repro.datasets.paper_figures import figure3, figure4, figure5
from repro.datasets.labels import (
    label_names,
    relabel_to_density,
    uniform_labels,
    zipf_labels,
)
from repro.datasets.registry import (
    dataset_names,
    get_profile,
    make_dataset,
)
from repro.datasets.synthetic import (
    bipartite_affiliation_graph,
    configuration_graph,
    lognormal_graph,
    power_law_graph,
)

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "imdb_flavor",
    "dbpedia_flavor",
    "label_names",
    "uniform_labels",
    "zipf_labels",
    "relabel_to_density",
    "dataset_names",
    "get_profile",
    "make_dataset",
    "configuration_graph",
    "power_law_graph",
    "lognormal_graph",
    "bipartite_affiliation_graph",
]
