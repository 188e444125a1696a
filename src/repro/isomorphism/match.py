"""Embedding representations and helpers.

Throughout the library an **embedding** is a plain ``tuple`` ``m`` with
``m[u]`` = the data vertex matched to query node ``u``. Tuples keep the hot
search loops allocation-light and hashable; an objective's ``elements``
derives the view it scores (the vertex set, or the matched data edges).

The paper overloads "embedding" to also mean the matched *vertex set*, since
diversity only depends on which vertices are covered;
:func:`distinct_by_vertex_set` keeps one embedding per vertex set.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

Mapping = Tuple[int, ...]
"""An embedding: ``mapping[u]`` is the data vertex matched to query node ``u``."""


def distinct_by_vertex_set(mappings: Iterable[Mapping]) -> Iterator[Mapping]:
    """Drop embeddings whose vertex set was already seen.

    Two embeddings over the same vertex set contribute identically to
    coverage, so DSQ solutions only need one of them (Section 2).
    """
    seen: set[FrozenSet[int]] = set()
    for mapping in mappings:
        key = frozenset(mapping)
        if key not in seen:
            seen.add(key)
            yield mapping
