"""Shared fixtures and reference implementations for the test suite.

The reference implementations here are deliberately naive (itertools-based
brute force); they are the ground truth the optimized library code is tested
against on small instances.
"""

from __future__ import annotations

import builtins
import gc
import os
import random
import sys
import threading
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import combinations, permutations
from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np
import pytest

import repro
from repro.datasets.examples import dbpedia_flavor, figure1, figure2, imdb_flavor
from repro.graph.labeled_graph import LabeledGraph, check_edge
from repro.graph.query_graph import QueryGraph
from repro.isomorphism.qsearch import QSearchEngine

optimized_engine = partial(QSearchEngine, conflict_backjumping=True, bad_vertex_skipping=True)
"""``QSearchEngine`` with both Section 5.3/5.4 switches on."""


# ----------------------------------------------------------------------
# Reference (brute-force) implementations
# ----------------------------------------------------------------------
def brute_force_embeddings(graph: LabeledGraph, query: QueryGraph) -> List[Tuple[int, ...]]:
    """Every embedding by trying all injective label-respecting assignments."""
    buckets = [list(graph.vertices_with_label(query.label(u))) for u in range(query.size)]
    results: List[Tuple[int, ...]] = []

    def recurse(u: int, chosen: List[int], used: Set[int]) -> None:
        if u == query.size:
            results.append(tuple(chosen))
            return
        for v in buckets[u]:
            if v in used:
                continue
            ok = True
            for u2 in query.neighbors(u):
                if u2 < u and not graph.has_edge(chosen[u2], v):
                    ok = False
                    break
            if ok:
                chosen.append(v)
                used.add(v)
                recurse(u + 1, chosen, used)
                used.discard(v)
                chosen.pop()

    recurse(0, [], set())
    # Verify remaining edges (u2 > u handled implicitly by full recursion,
    # but double-check for safety).
    verified = []
    for mapping in results:
        if all(graph.has_edge(mapping[a], mapping[b]) for a, b in query.edges()):
            verified.append(mapping)
    return verified


def brute_force_distinct_vertex_sets(
    graph: LabeledGraph, query: QueryGraph
) -> Set[FrozenSet[int]]:
    """All embeddings collapsed to distinct vertex sets."""
    return {frozenset(m) for m in brute_force_embeddings(graph, query)}


def brute_force_optimal_coverage(
    vertex_sets: Sequence[FrozenSet[int]], k: int
) -> int:
    """Exact max coverage by trying every <=k-subset (tiny instances only)."""
    best = 0
    sets = list(vertex_sets)
    for size in range(0, min(k, len(sets)) + 1):
        for combo in combinations(sets, size):
            cover = len(set().union(*combo)) if combo else 0
            best = max(best, cover)
    return best


def random_labeled_graph(
    num_vertices: int,
    num_labels: int,
    edge_prob: float,
    seed: int,
) -> LabeledGraph:
    """Small Erdős–Rényi labeled graph for randomized tests."""
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(num_vertices)]
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.random() < edge_prob
    ]
    return LabeledGraph(labels, edges)


STORAGE_STATES = ("csr", "set")
"""The two routes to one graph (``LabeledGraph`` holds its own storage).

``csr`` — built: every edge handed to the constructor, which checks each
pair once and sorts the rows in bulk. ``set`` — grown: the same graph from an edgeless start,
edge by edge through ``add_edge``'s in-place row and set updates. The two
end in the same storage state (``tests/graph/test_csr.py`` pins it); the ids
are those of the retired two-backend axis, so the ``set`` golden rows and
test ids now pin the grown route."""


def build_graph(labels, edges=(), name: str = "", storage: str = "csr") -> LabeledGraph:
    """``LabeledGraph(labels, edges)``, built (``csr``) or grown (``set``)."""
    if storage == "csr":
        return LabeledGraph(labels, edges, name=name)
    graph = LabeledGraph(labels, name=name)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def normalize_edges(num_vertices: int, edges) -> List[Tuple[int, int]]:
    """The reference the one-pass constructor is compared with: every pair
    through ``check_edge``, then sorted unique ``(u, v)`` with ``u < v`` (the
    pass ``src/`` ran before building rows, until the constructor folded it in)."""
    seen = set()
    for u, v in edges:
        check_edge(num_vertices, u, v)
        seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


def counting(monkeypatch, module, name: str) -> List[tuple]:
    """Wrap ``module.name`` (a module global, or a builtin shadowed there) so
    every call's positional arguments are recorded; returns the list."""
    real, calls = getattr(module, name, None) or getattr(builtins, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy, raising=False)
    return calls


def in_storage_state(graph: LabeledGraph, storage: str) -> LabeledGraph:
    """A copy of ``graph`` made by the given route (see ``STORAGE_STATES``)."""
    return build_graph(list(graph.labels), graph.edges(), name=graph.name, storage=storage)


def resident_arrays(graph: LabeledGraph) -> List[str]:
    """The graph's slots holding a numpy array between calls (none, by design)."""
    return [slot for slot in LabeledGraph.__slots__ if isinstance(getattr(graph, slot), np.ndarray)]


def assert_arrays_match_rebuild(graph: LabeledGraph):
    """The live storage is what a from-scratch rebuild of its graph holds:
    same sorted rows, membership sets, degrees, label ids and edge count
    (the name is from the CSR arrays this once compared). Returns the rows."""
    want = LabeledGraph(list(graph.labels), graph.edges())
    n = graph.num_vertices
    assert (n, graph.num_edges) == (want.num_vertices, want.num_edges)
    rows = [graph.neighbors(v) for v in range(n)]
    assert rows == [want.neighbors(v) for v in range(n)]
    assert [graph.neighbor_set(v) for v in range(n)] == [set(row) for row in rows]
    assert graph.degree_sequence() == want.degree_sequence() == [len(row) for row in rows]
    assert graph.label_id_sequence() == want.label_id_sequence()
    assert all(type(w) is int for row in rows for w in row)
    return rows


def passes_filter_stack(graph: LabeledGraph, query: QueryGraph, u: int, v: int) -> bool:
    """Section 4's label + degree + neighborhood-signature filters for data
    vertex ``v`` against query node ``u``, recomputed from the index cache's
    ``degrees`` / ``signature_masks`` — what ``candS(u)`` membership must equal."""
    cache = graph.index_cache()
    mask = cache.mask_for(query.neighborhood_signature(u))
    return (
        mask is not None
        and graph.label(v) == query.label(u)
        and cache.degrees[v] >= query.degree(u)
        and cache.signature_masks[v] & mask == mask
    )


# ----------------------------------------------------------------------
# Process census: what a worker pool or a multi-worker front may leave behind
# ----------------------------------------------------------------------
def wait_until(predicate, timeout: float = 30.0) -> bool:
    """Poll ``predicate`` until it holds; False if ``timeout`` seconds pass first."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@contextmanager
def held_by_another_thread(locks, bound_s: float = 60.0):
    """Run the block while a second thread holds every lock in ``locks`` —
    what a fork in the block captures locked for good. The holder lets go
    when the block ends, or after ``bound_s`` so that a block waiting on one
    of the locks fails late instead of hanging."""
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with ExitStack() as stack:
            for lock in locks:
                stack.enter_context(lock)
            held.set()
            release.wait(bound_s)

    holder = threading.Thread(target=hold, name="lock-holder")
    holder.start()
    try:
        assert held.wait(10)
        yield
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()


def dev_shm() -> Set[str]:
    """Every name under ``/dev/shm`` (empty where there is no such directory)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids() -> Set[int]:
    """Processes whose parent is this one, zombies included, from ``/proc`` —
    the census ``perfbench/harness/env.py::stop_children`` takes."""
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:  # gone in the meantime
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry))
    return found


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class ProcessCensus:
    """``/dev/shm`` names, child pids and open fds at construction, to hold
    later states against. ``settled()`` waits (bounded) for executor threads
    and reaped children to let go before it compares."""

    def __init__(self) -> None:
        gc.collect()
        self.shm, self.children, self.fds = dev_shm(), child_pids(), open_fds()

    def new_shm(self) -> Set[str]:
        return dev_shm() - self.shm

    def new_children(self) -> Set[int]:
        return child_pids() - self.children

    def settled(self, timeout: float = 10.0) -> bool:
        def quiet() -> bool:
            gc.collect()
            return not self.new_shm() and not self.new_children() and open_fds() <= self.fds

        return wait_until(quiet, timeout)

    def report(self) -> str:
        return (
            f"new /dev/shm {sorted(self.new_shm())}, new children "
            f"{sorted(self.new_children())}, fds {self.fds} -> {open_fds()}"
        )


def profiled_calls(run):
    """``(run(), Counter)`` of the Python-level calls made while ``run`` ran
    whose code lives under ``src/repro``, keyed ``(file name, function
    name)`` — counted with ``sys.setprofile``, so C-level calls are free."""
    src = os.path.dirname(repro.__file__)
    calls = Counter()

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            calls[os.path.basename(code.co_filename), code.co_name] += 1

    sys.setprofile(hook)
    try:
        return run(), calls
    finally:
        sys.setprofile(None)


def connected_query_from(graph: LabeledGraph, num_edges: int, seed: int) -> QueryGraph:
    """A random connected query sampled from ``graph`` (test-local copy)."""
    from repro.queries.generator import random_query

    return random_query(graph, num_edges, rng=random.Random(seed))


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig1():
    """(graph, query) of the paper's Figure 1."""
    return figure1()


@pytest.fixture(scope="session")
def fig2():
    """(graph, query) of the paper's Figure 2 / Example 2."""
    return figure2()


@pytest.fixture(scope="session")
def imdb_small():
    """Small IMDB-flavour affiliation graph and its Section 7.2 query."""
    return imdb_flavor(num_people=300, num_series=60, seed=3)


@pytest.fixture(scope="session")
def dbpedia_small():
    """Small DBpedia-flavour occupation graph and its B.1 query."""
    return dbpedia_flavor(num_people=400, seed=5)


@pytest.fixture()
def triangle_query():
    """A 3-node triangle query with distinct labels."""
    return QueryGraph(["x", "y", "z"], [(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def path_query():
    """A 3-node path query a-b-c."""
    return QueryGraph(["a", "b", "c"], [(0, 1), (1, 2)])
