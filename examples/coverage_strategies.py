"""Comparing maximum k-coverage strategies on one embedding stream.

Enumerates all embeddings of a query on the DBLP stand-in and feeds the same
stream to GreedyDSQ, each streaming SWAP algorithm, the DSQ_NS multi-scan,
and the exact branch-and-bound optimum — the Table 4 / Appendix B.2 setting
in miniature, with a real optimum to measure against.

Run: ``python examples/coverage_strategies.py``
"""

from __future__ import annotations

import time

from repro.baselines import generate_all, select_top_k, STRATEGIES
from repro.coverage import coverage, dsq_ns, optimal_coverage, swap_alpha_multiscan
from repro.datasets import make_dataset
from repro.queries import random_query
import random


def main() -> None:
    graph = make_dataset("dblp", scale=0.01, seed=3)
    rng = random.Random(5)
    query = random_query(graph, 5, rng=rng)
    k = 10

    # A truncated stream keeps GreedyDSQ and the exact solver interactive;
    # the relative ordering of the strategies is unaffected.
    embeddings, complete = generate_all(graph, query, node_budget=20_000)
    print(f"stream: {len(embeddings)} distinct embeddings of a "
          f"{query.size}-node query{'' if complete else ' (truncated)'}; k = {k}\n")
    if not embeddings:
        print("query has no matches on this seed; re-run with another seed")
        return

    rows = []
    for strategy in STRATEGIES:
        start = time.perf_counter()
        members = select_top_k(embeddings, k, strategy)
        elapsed = (time.perf_counter() - start) * 1000
        rows.append((strategy, coverage(members), elapsed))

    ns = dsq_ns(embeddings, k, query.size)
    rows.append(("DSQ_NS", ns.coverage, float("nan")))
    multi = swap_alpha_multiscan(embeddings, k, num_scans=4)
    rows.append((f"SWAPa x{multi.scans} scans", multi.coverage, float("nan")))

    opt_cover = None
    if len(embeddings) <= 600:
        opt_cover, _ = optimal_coverage(embeddings, k, max_embeddings=600)
        rows.append(("OPTIMAL (exact B&B)", opt_cover, float("nan")))

    print(f"{'strategy':<22} {'coverage':>8} {'ms':>8}")
    for name, cov, ms in rows:
        ms_txt = f"{ms:8.2f}" if ms == ms else "       -"
        ratio = f"  ({cov / opt_cover:.3f} of optimal)" if opt_cover else ""
        print(f"{name:<22} {cov:>8}{ms_txt}{ratio}")


if __name__ == "__main__":
    main()
