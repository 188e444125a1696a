"""One graph object, checked two ways (the file and its ids are named after
the storage classes this contract was first written for).

1. **A second opinion** — :class:`~repro.graph.labeled_graph.LabeledGraph`
   against a ``networkx.Graph`` model under random build → mutate → compact scripts:
   after every step the tuple/set views (≡ a from-scratch rebuild's) and
   the pickled copy a spawned worker would start with must all describe the
   model's graph.

2. **How the graph got there changes nothing** — two graphs holding the
   same edges by opposite routes (``csr``: built in
   bulk; ``set``: grown edge by edge — see
   ``tests/conftest.py::STORAGE_STATES``), plus a third made from the first
   the way a spawned pool worker gets its graph (pickle, then
   ``worker_graph``), must give identical structure and bit-identical DSQL
   results. This is the contract
   the retired ``set`` backend class was kept to prove.
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.datasets.registry import dataset_names, make_dataset
from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import worker_graph
from repro.queries.generator import query_set
from tests.conftest import assert_arrays_match_rebuild, in_storage_state
from tests.property.test_mutation_equivalence import assert_results_identical
from tests.property.test_plan_equivalence import instances


# ----------------------------------------------------------------------
# 1. LabeledGraph vs a networkx model
# ----------------------------------------------------------------------
def assert_matches_model(graph: LabeledGraph, model: nx.Graph) -> None:
    n = model.number_of_nodes()
    assert graph.num_vertices == n
    assert graph.num_edges == model.number_of_edges()
    assert list(graph.edges()) == sorted(tuple(sorted(e)) for e in model.edges())
    assert graph.degree_sequence() == [model.degree(v) for v in range(n)]
    for u in range(n):
        row = sorted(model[u])
        assert list(graph.neighbors(u)) == row
        assert graph.neighbor_set(u) == set(row)
        assert graph.degree(u) == len(row)
        for v in range(n):
            assert graph.has_edge(u, v) == model.has_edge(u, v)


def check_step(graph: LabeledGraph, model: nx.Graph) -> None:
    """The live views, and the round trip across a process boundary."""
    assert_matches_model(graph, model)
    assert_arrays_match_rebuild(graph)
    twin = pickle.loads(pickle.dumps(graph))
    assert_matches_model(twin, model)
    assert twin.labels == graph.labels and twin.label_to_id == graph.label_to_id


vertex_pairs = st.tuples(st.integers(0, 40), st.integers(0, 40))
script_steps = st.one_of(
    st.tuples(st.just("add_edge"), vertex_pairs),
    st.tuples(st.just("remove_edge"), vertex_pairs),
    st.tuples(st.just("add_vertex"), st.sampled_from("abc")),
    st.tuples(st.just("compact"), st.none()),
)


@settings(max_examples=120, deadline=None)
@given(
    labels=st.lists(st.sampled_from("abc"), min_size=1, max_size=9),
    initial=st.lists(vertex_pairs, max_size=14),
    script=st.lists(script_steps, max_size=30),
)
def test_storage_matches_networkx_model(labels, initial, script):
    def pair(raw, n):
        return raw[0] % n, raw[1] % n

    n = len(labels)
    built = [pair(raw, n) for raw in initial]
    built = [(u, v) for u, v in built if u != v]
    graph = LabeledGraph(labels, built)
    model = nx.Graph()
    model.add_nodes_from(range(n))
    model.add_edges_from(built)
    check_step(graph, model)
    for kind, arg in script:
        n = model.number_of_nodes()
        if kind == "add_vertex":
            assert graph.add_vertex(arg) == n
            model.add_node(n)
            assert graph.label(n) == arg
        elif kind == "compact":
            graph.compact()
            assert graph.delta_size == 0
        else:
            u, v = pair(arg, n)
            if u == v:
                continue
            if kind == "add_edge":
                assert graph.add_edge(u, v) == (not model.has_edge(u, v))
                model.add_edge(u, v)
            else:
                assert graph.remove_edge(u, v) == model.has_edge(u, v)
                if model.has_edge(u, v):
                    model.remove_edge(u, v)
        check_step(graph, model)


# ----------------------------------------------------------------------
# 2. Built vs grown vs handed to a worker process
# ----------------------------------------------------------------------
def reattached(graph: LabeledGraph) -> LabeledGraph:
    """``graph`` as a spawned pool worker serves it: unpickled, then wrapped
    by the helper every worker goes through."""
    return worker_graph(pickle.loads(pickle.dumps(graph)))


def twins(graph: LabeledGraph):
    return in_storage_state(graph, "set"), reattached(graph)


@pytest.mark.parametrize("dataset", dataset_names())
def test_backends_identical_on_registry_dataset(dataset):
    graph = make_dataset(dataset, scale=0.001, seed=7)
    queries = query_set(graph, 3, 3, seed=11)
    config = DSQLConfig(k=4, node_budget=200_000)
    base_session = DSQL(graph, config=config)
    for twin in twins(graph):
        twin_session = DSQL(twin, config=config)
        for query in queries:
            assert_results_identical(base_session.query(query), twin_session.query(query))


@pytest.mark.parametrize("dataset", dataset_names()[:3])
def test_backends_identical_structure(dataset):
    graph = make_dataset(dataset, scale=0.001, seed=3)
    for twin in twins(graph):
        assert list(graph.labels) == list(twin.labels)
        assert list(graph.edges()) == list(twin.edges())
        assert graph.degree_sequence() == twin.degree_sequence()
        for v in range(min(graph.num_vertices, 40)):
            assert graph.neighbors(v) == twin.neighbors(v)
            assert graph.neighborhood_signature(v) == twin.neighborhood_signature(v)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_backends_identical_on_random_instances(instance):
    graph, query, k = instance
    for factory in (DSQLConfig.dsql0, lambda kk: DSQLConfig(k=kk)):
        config = factory(k)
        want = DSQL(graph, config=config).query(query)
        for twin in twins(graph):
            assert_results_identical(want, DSQL(twin, config=config).query(query))
