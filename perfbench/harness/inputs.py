"""Seeded input generation: the data graph as lists, queries, and the op script.

The program under test only ever receives what is built here — label and
edge lists, :class:`QueryGraph` objects, encoded request bytes, mutation
tuples. ``inputs_sha256`` digests all of it so two commits can prove they
ran identical inputs.

What ``--seed`` draws, and what it does not. The data graph is the registry
stand-in of a named dataset and the query population is one fixed sample of
it (both as fixed as the paper's datasets and query logs are). The seed
draws the order of the ops, the Zipf ranks and request sequence of each
client, which queries the reads of a mixed script ask, and the whole
mutation script. The population is fixed because per-query cost is
heavy-tailed: over six seeds the total counted work of 80 fresh
``engine_heavy`` queries had an inter-quartile spread of 22 % (10 % with
every op capped at 10k expansions), and no sample that fits a run brings
the mean of such a distribution inside a 10 % bound — the seed would be
measured, not the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.core.config import DSQLConfig
from repro.datasets import make_dataset
from repro.graph import QueryGraph
from repro.queries import random_query

GRAPH_NAME = "g"
"""Catalog name of the workload's graph (and the graph segment of write routes)."""

QUERY_PATH = "/v1/query"
INGEST_PATH = f"/v1/graphs/{GRAPH_NAME}/ingest"
NEVER_COMPACT = 10**9
OBJECTIVES = ("vertex", "edge", "weighted-vertex")


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload (``why`` is the one-line reason it exists)."""

    name: str
    why: str
    driver: str  # "engine": DSQL.query | "inproc": handle_post | "http": real sockets
    dataset: str
    scale: float
    k: int
    query_edges: int
    distinct: int
    objectives: Tuple[str, ...] = ("vertex",)
    clients: int = 1
    ops_per_client: int = 0  # 0 = one op per (query, objective); else Zipf reads or a mixed script
    write_every: int = 0  # every n-th op is a write; 0 = read-only
    compactions: int = 0  # writes per cycle that force a compaction
    node_budget: int = 5_000_000  # the engine default unless a workload caps it
    chunk_ops: int = 50  # ops per client between two calibration readings (~0.3 s)
    kernel_ms: float = 24.0  # the calibration kernel's time on the nominal machine

    def smoke(self) -> "Spec":
        """About a tenth of the ops, for quick iteration (not comparable)."""
        ops = self.ops_per_client // 10
        if self.write_every:
            # Keep the script restorable: an even number of writes, a multiple of compactions.
            unit = 2 * self.write_every * self.compactions
            ops = max(unit, ops // unit * unit)
        return dataclasses.replace(
            self,
            distinct=max(8, self.distinct // 10),
            ops_per_client=ops,
            chunk_ops=max(1, self.chunk_ops // 4),
        )

    def config(self, objective: str = "vertex") -> DSQLConfig:
        """The engine configuration of this workload's sessions."""
        return DSQLConfig(k=self.k, objective=objective, node_budget=self.node_budget)


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in [
        Spec(
            name="engine_stream",
            why="paper traffic (k=40, 5-edge queries); 400 distinct plans cycle through a "
            "128-entry plan cache, so every op pays plan compile and candidate build",
            driver="engine",
            dataset="dblp",
            scale=0.3,
            k=40,
            query_edges=5,
            distinct=400,
            chunk_ops=50,
        ),
        Spec(
            name="engine_heavy",
            why="dense graph, 6-edge queries under all three objectives, warm plans, 20k-node "
            "budget: search, kernels and coverage are >95% of an op, plan and index work none",
            driver="engine",
            dataset="human",
            scale=1.0,
            k=40,
            query_edges=6,
            distinct=80,
            objectives=OBJECTIVES,
            node_budget=20_000,
            chunk_ops=30,
            kernel_ms=26.0,
        ),
        Spec(
            name="service_point",
            why="real HTTP, two closed-loop clients, Zipf over a 64-query hot set that fits "
            "the result memo: the engine is idle and the service layers are everything",
            driver="http",
            dataset="dblp",
            scale=0.3,
            k=10,
            query_edges=3,
            distinct=64,
            clients=2,
            ops_per_client=1250,
            chunk_ops=250,
        ),
        Spec(
            name="service_mixed",
            why="handle_post in-process, every 5th op an 8-edge ingest with forced compactions: "
            "writes strand memo and plans, so reads run cold and write cost shows",
            driver="inproc",
            dataset="dblp",
            scale=0.3,
            k=10,
            query_edges=4,
            distinct=256,
            ops_per_client=750,
            write_every=5,
            compactions=3,
            chunk_ops=75,
        ),
    ]
}


class Op(NamedTuple):
    """One scripted operation. Reads carry a query; writes carry mutation tuples."""

    kind: str  # "read" | "write"
    query: int  # index into Inputs.queries; -1 for writes
    objective: str
    path: str
    raw: bytes  # the encoded request (engine ops never send it; it feeds the digest)
    mutation: Tuple[Tuple, ...] = ()
    threshold: int = NEVER_COMPACT


@dataclass
class Inputs:
    spec: Spec
    seed: int
    labels: List[str]
    edges: List[Tuple[int, int]]
    queries: List[QueryGraph]
    ops: List[Op]  # client-major when spec.clients > 1
    sha256: str
    synth_s: float  # time spent in make_dataset (input generation, not set-up)

    def client_ops(self, client: int) -> Sequence[Op]:
        per = len(self.ops) // self.spec.clients
        return self.ops[client * per : (client + 1) * per]


def encode_read(query: QueryGraph, objective: str) -> bytes:
    """The ``POST /v1/query`` body for one read."""
    payload: Dict[str, object] = {
        "graph": GRAPH_NAME,
        "query": {
            "labels": [str(label) for label in query.labels],
            "edges": [list(edge) for edge in sorted(query.edges())],
        },
    }
    if objective != "vertex":
        payload["objective"] = objective
    return json.dumps(payload).encode("utf-8")


def encode_write(mutation: Sequence[Tuple], threshold: int) -> bytes:
    """The ``POST /v1/graphs/{g}/ingest`` body for one write."""
    return json.dumps(
        {"ops": [list(op) for op in mutation], "compaction_threshold": threshold}
    ).encode("utf-8")


def distinct_queries(graph, num_edges: int, count: int, rng: random.Random) -> List[QueryGraph]:
    """``count`` random connected queries with pairwise different labeled structure."""
    seen: Set[Tuple] = set()
    out: List[QueryGraph] = []
    while len(out) < count:
        query = random_query(graph, num_edges, rng)
        key = query.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(query)
    return out


def mutation_script(
    rng: random.Random,
    num_vertices: int,
    edges: Sequence[Tuple[int, int]],
    writes: int,
    compactions: int,
    batch_edges: int = 8,
) -> List[Tuple[Tuple[Tuple, ...], int]]:
    """``writes`` ingest batches whose second half undoes the first.

    Each forward batch adds ``batch_edges / 2`` absent edges and removes as
    many present ones, all distinct across the script, so every op takes
    effect. The inverses run in reverse order, so the logical graph after
    the last batch equals the graph before the first. ``compactions`` evenly
    spaced batches (the last one among them) carry ``compaction_threshold``
    1 and so compact; the others never do, whatever the server default.
    """
    if writes % 2 or (compactions and writes % compactions):
        raise ValueError("writes must be even and a multiple of compactions")
    forward = writes // 2
    adds_per, removes_per = batch_edges // 2, batch_edges - batch_edges // 2
    present = set(edges)
    removed = rng.sample(range(len(edges)), forward * removes_per)
    added: List[Tuple[int, int]] = []
    while len(added) < forward * adds_per:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        edge = (min(u, v), max(u, v))
        if u != v and edge not in present:
            present.add(edge)
            added.append(edge)
    batches: List[Tuple[Tuple, ...]] = []
    for b in range(forward):
        batch = [("add_edge", u, v) for u, v in added[b * adds_per : (b + 1) * adds_per]]
        batch += [
            ("remove_edge", *edges[i])
            for i in removed[b * removes_per : (b + 1) * removes_per]
        ]
        rng.shuffle(batch)
        batches.append(tuple(batch))
    flip = {"add_edge": "remove_edge", "remove_edge": "add_edge"}
    batches += [
        tuple((flip[kind], u, v) for kind, u, v in reversed(batch))
        for batch in reversed(batches)
    ]
    every = writes // compactions if compactions else 0
    return [
        (batch, 1 if every and (w + 1) % every == 0 else NEVER_COMPACT)
        for w, batch in enumerate(batches)
    ]


def write_op(mutation: Tuple[Tuple, ...], threshold: int) -> Op:
    return Op("write", -1, "", INGEST_PATH, encode_write(mutation, threshold), mutation, threshold)


def generate(spec: Spec, seed: int) -> Inputs:
    """All inputs of one workload for one seed (same seed, same inputs)."""
    start = time.perf_counter()
    graph = make_dataset(spec.dataset, scale=spec.scale, seed=0)
    synth_s = time.perf_counter() - start
    labels = [str(label) for label in graph.labels]
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())

    def stream(purpose: str) -> random.Random:
        return random.Random(f"{spec.name}:{seed}:{purpose}")

    # The population does not depend on the seed (see the module docstring).
    queries = distinct_queries(
        graph, spec.query_edges, spec.distinct, random.Random(f"{spec.name}:population")
    )

    def read_op(qi: int, objective: str) -> Op:
        return Op("read", qi, objective, QUERY_PATH, encode_read(queries[qi], objective))

    ops: List[Op] = []
    if not spec.ops_per_client:
        # One op per (query, objective), in seeded order.
        ops = [read_op(qi, obj) for qi in range(spec.distinct) for obj in spec.objectives]
        stream("order").shuffle(ops)
    elif spec.write_every:
        order = stream("order")
        script = mutation_script(
            stream("mutations"),
            len(labels),
            edges,
            spec.ops_per_client // spec.write_every,
            spec.compactions,
        )
        for i in range(spec.ops_per_client):
            if i % spec.write_every == spec.write_every - 1:
                ops.append(write_op(*script[i // spec.write_every]))
            else:
                ops.append(read_op(order.randrange(spec.distinct), spec.objectives[0]))
    else:
        # Zipf(1) over seeded ranks: which query is hottest changes with the seed.
        ranked = stream("ranks").sample(range(spec.distinct), spec.distinct)
        weights = [1.0 / (rank + 1) for rank in range(spec.distinct)]
        for client in range(spec.clients):
            picks = stream(f"order:{client}").choices(ranked, weights, k=spec.ops_per_client)
            ops += [read_op(qi, spec.objectives[0]) for qi in picks]

    digest = hashlib.sha256()
    digest.update("\x00".join(labels).encode("utf-8"))
    digest.update(array("q", [x for edge in edges for x in edge]).tobytes())
    for op in ops:
        digest.update(f"{op.kind}|{op.objective}|{op.path}|".encode("utf-8"))
        digest.update(op.raw)
    return Inputs(spec, seed, labels, edges, queries, ops, digest.hexdigest(), synth_s)
