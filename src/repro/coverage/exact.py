"""Exact maximum k-coverage by branch and bound over int bitmasks.

The paper can only *lower-bound* approximation ratios by ``|C(A)| / (kq)``
because the optimum is unknown on its datasets. On small instances we can do
better: this module computes the true optimum over an explicit embedding
set, so tests can measure real ratios against Theorems 3, 4 and 6. A caller
that wants a ratio divides a solution's coverage by ``optimal_coverage(...)[0]``.

Each distinct element set becomes an ``int`` mask, one bit per element. A
mask's weight is its popcount under unit weights, and otherwise the
objective's own total over the per-bit weights, so the optimum returned
equals ``objective.collection_coverage(OPT)`` exactly, floats included.

The search is depth first and best-gain-first: at every node it re-scores
the remaining sets by marginal gain and takes them in that order. Its first
descent is therefore greedy, the incumbent every later branch must beat. A
branch is cut when its bound, the lesser of

* the covered weight plus the ``slots_left`` largest gains, and
* the weight of the covered set united with every set left,

cannot beat the incumbent (the second is the greedy-coverage argument of
TED, arXiv 2212.07612, and of arXiv 1809.02434). At the root this bound is
the *ceiling* ``min(sum of the k largest set weights, weight of the
union)``, so when greedy reaches the ceiling the search ends without a
second branch. Exponential in the worst case: an input-size and a
search-node limit turn hopeless instances into explicit errors instead of
hangs.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.coverage.core import EmbeddingSet, as_vertex_set
from repro.coverage.objectives import Objective
from repro.exceptions import ConfigError

_DEFAULT_MAX_EMBEDDINGS = 4000


def optimal_coverage(
    embeddings: Sequence[Iterable[int]],
    k: int,
    max_embeddings: int = _DEFAULT_MAX_EMBEDDINGS,
    max_nodes: int = 2_000_000,
    objective: Optional[Objective] = None,
) -> Tuple[int, List[EmbeddingSet]]:
    """``(|C(OPT)|, OPT)`` for selecting at most ``k`` of ``embeddings``.

    ``OPT`` is returned as element sets (vertex sets under the default
    objective). Raises :class:`~repro.exceptions.ConfigError` when the
    instance exceeds ``max_embeddings`` candidates after deduplication, or
    when the search tree exceeds ``max_nodes`` — raise the limits explicitly
    if you really mean it (an exact answer on a hard instance can be
    exponential).
    """
    if k < 1:
        return 0, []
    project = as_vertex_set if objective is None else objective.elements
    sets = list(dict.fromkeys(map(project, embeddings)))
    if len(sets) > max_embeddings:
        raise ConfigError(
            f"exact solver given {len(sets)} embeddings (> {max_embeddings}); "
            "raise max_embeddings to force it"
        )
    position: dict = {}
    masks = [sum(1 << position.setdefault(e, len(position)) for e in s) for s in sets]
    if objective is None or objective.unit_weights:
        weigh, total = int.bit_count, sum
    else:
        weights, total = list(map(objective.weight, position)), objective._total

        def weigh(mask: int):
            return total(compress(weights, map("1".__eq__, bin(mask)[:1:-1])))

    best, best_masks, nodes = weigh(0), [], 0

    def search(pool: List[int], covered: int, picked: List[int]) -> None:
        nonlocal best, best_masks, nodes
        covered_w = weigh(covered)
        if covered_w > best:
            best, best_masks = covered_w, list(picked)
        slots = k - len(picked)
        if not slots:
            return
        scored = sorted(
            ((weigh(m & ~covered), m) for m in pool), key=itemgetter(0), reverse=True
        )
        while scored and scored[-1][0] <= 0:
            scored.pop()
        reach = [covered] * (len(scored) + 1)  # reach[i]: covered | every set from i on
        for i in range(len(scored) - 1, -1, -1):
            reach[i] = reach[i + 1] | scored[i][1]
        for i, (_, mask) in enumerate(scored):
            nodes += 1
            if nodes > max_nodes:
                raise ConfigError(
                    f"exact max-coverage search exceeded {max_nodes} nodes; "
                    "the instance is too hard for an exact answer"
                )
            top = [gain for gain, _ in scored[i : i + slots]]
            if min(total([covered_w, *top]), weigh(reach[i])) <= best:
                return  # gains and reach only shrink further along
            picked.append(mask)
            search([m for _, m in scored[i + 1 :]], covered | mask, picked)
            picked.pop()

    search(masks, 0, [])
    by_mask = dict(zip(masks, sets))
    return best, [by_mask[m] for m in best_masks]
