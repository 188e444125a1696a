"""The objective seam changes nothing under ``objective="vertex"``.

Two pins:

1. **Golden gate** — ``tests/data/objective_vertex_goldens.json`` holds one
   digest per (registry dataset × backend × plans on/off × query), captured
   on the pre-seam pipeline, when the engines still had a plan-free fork and
   graphs a second (``set``) storage class. The single remaining pipeline
   must reproduce **all four** rows of every query bit-for-bit — the ``csr``
   rows from the frozen array base, the ``set`` rows from the same graph
   resident in the mutation overlay's row sets: embeddings, coverage, level, optimality
   *reason*, node expansions, and Phase-2 activity all feed the hash, so a
   single off-by-one anywhere in the dispatch trips the gate — and the
   ``plans=off`` rows keep the retired path's behaviour pinned as data.

2. **Scratch-helper property** — the module-level ``coverage``/``benefit``/
   ``loss`` helpers and :class:`CoverageTracker` are two implementations of
   the same algebra; hypothesis pins them to each other on random element
   collections, including duplicate members and non-vertex (edge-style
   tuple) elements.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DSQLConfig
from repro.core.dsql import DSQL
from repro.coverage.core import CoverageTracker, benefit, coverage, loss
from repro.datasets.registry import dataset_names, make_dataset
from repro.queries.generator import query_set
from tests.conftest import STORAGE_STATES, in_storage_state

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "objective_vertex_goldens.json")
    .read_text(encoding="utf-8")
)


def result_digest(r) -> str:
    """The capture-time recipe, frozen: change it and every golden lies."""
    return hashlib.sha256(
        repr(
            (
                r.embeddings,
                r.coverage,
                r.level,
                r.optimal,
                r.optimal_reason,
                r.stats.nodes_expanded,
                r.stats.phase2_ran,
                r.stats.phase2_swaps,
            )
        ).encode()
    ).hexdigest()[:16]


def test_goldens_cover_full_matrix():
    datasets = dataset_names()
    assert len(GOLDENS) == len(datasets) * 2 * 2 * 3
    for ds in datasets:
        for backend in ("csr", "set"):
            for plans in ("on", "off"):
                for i in range(3):
                    assert f"{ds}|{backend}|plans={plans}|q{i}" in GOLDENS


@pytest.mark.parametrize("dataset", dataset_names())
def test_vertex_objective_matches_preseam_goldens(dataset):
    base = make_dataset(dataset, scale=0.001, seed=7)
    queries = query_set(base, 3, 3, seed=11)
    for storage in STORAGE_STATES:
        graph = in_storage_state(base, storage)
        session = DSQL(graph, config=DSQLConfig(k=4, node_budget=200_000))
        for i, query in enumerate(queries):
            digest = result_digest(session.query(query))
            for plans in ("on", "off"):
                key = f"{dataset}|{storage}|plans={plans}|q{i}"
                assert digest == GOLDENS[key], key


# ----------------------------------------------------------------------
# Scratch helpers == CoverageTracker, element-type-agnostic.
# ----------------------------------------------------------------------
vertex_elements = st.integers(min_value=0, max_value=12)
edge_elements = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


def collections(element):
    members = st.frozensets(element, min_size=0, max_size=5)
    return st.lists(members, min_size=1, max_size=6).flatmap(
        # Re-append a prefix so duplicate members are common, not rare.
        lambda ms: st.integers(min_value=0, max_value=len(ms)).map(lambda d: ms + ms[:d])
    )


@pytest.mark.parametrize("element", [vertex_elements, edge_elements], ids=["vertex", "edge"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracker_matches_scratch_helpers(element, data):
    members = data.draw(collections(element))
    tracker = CoverageTracker(members)
    assert tracker.coverage == coverage(members)
    probe = data.draw(st.frozensets(element, min_size=0, max_size=5))
    assert tracker.benefit(probe) == benefit(probe, members)
    for i, slot in enumerate(tracker.slots()):
        assert tracker.loss(slot) == loss(members, i)
        # loss_plus discounts the private elements that `probe` re-covers.
        others = set().union(*(m for j, m in enumerate(members) if j != i), set())
        private = set(members[i]) - others
        assert tracker.loss_plus(slot, probe) == len(private - probe)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tracker_churn_keeps_scratch_equivalence(data):
    members = data.draw(collections(vertex_elements))
    tracker = CoverageTracker(members)
    slots = list(tracker.slots())
    drops = data.draw(
        st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
    )
    for slot in drops:
        tracker.remove(slot)
    remaining = tracker.members()
    assert tracker.coverage == coverage(remaining)
    for i, slot in enumerate(tracker.slots()):
        assert tracker.loss(slot) == loss(remaining, i)
