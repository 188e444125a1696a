"""COM and random-start reproduce their pre-merge streams, as data.

Until PR 17 each baseline carried its own copy of the father-localized DFS
that is now ``repro.baselines.com.region_embeddings``; what the two copies
returned survives as ``tests/data/baseline_stream_goldens.json`` (recipe in
``tests/data/README.md``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.com import com_search
from repro.baselines.random_start import random_start_search
from repro.datasets.registry import dataset_names
from tests.property.test_plan_equivalence import registry_cases

GOLDENS_PATH = Path(__file__).resolve().parent.parent / "data" / "baseline_stream_goldens.json"
K = 40


def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))["digests"]


def baseline_digests(graph, query) -> dict:
    """The capture-time recipe, frozen: change it and every golden lies."""
    com = com_search(graph, query, K)
    rs = random_start_search(graph, query, K)
    regions = (com.regions_opened, com.regions_exhausted, com.budget_exhausted)
    rows = {
        "com": (com.embeddings, com.coverage, *regions),
        "random_start": (rs.embeddings, rs.coverage),
    }
    return {
        name: hashlib.sha256(repr(row).encode()).hexdigest()[:16] for name, row in rows.items()
    }


def all_baseline_digests(dataset: str) -> dict:
    return {
        f"{case.replace('|csr', '')}|{name}": digest
        for case, graph, query in registry_cases(dataset, "csr")
        for name, digest in baseline_digests(graph, query).items()
    }


@pytest.mark.parametrize("dataset", dataset_names())
def test_baselines_reproduce_pre_merge_streams(dataset):
    got = all_baseline_digests(dataset)
    frozen = goldens()
    assert got == {key: frozen[key] for key in got}


def test_baseline_goldens_cover_full_matrix():
    assert len(goldens()) == len(dataset_names()) * 3 * 2
