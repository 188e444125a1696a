"""Coverage algebra: ``C``, benefit ``B``, and loss ``L`` (Sections 2 and 6).

For a collection ``F`` of embeddings and an
:class:`~repro.coverage.objectives.Objective` mapping each embedding to a
set of weighted *coverage elements* (data vertices under the default
``vertex`` objective):

* coverage      ``|C(F)|``  — total weight of distinct covered elements;
* benefit       ``B(h, F) = |C(h) \\ C(F)|`` — weight ``h`` would add;
* loss          ``L(f, F) = |C(f) \\ C(F \\ f)|`` — weight lost if ``f``
  is removed (Equation 1). These are exactly the elements *privately*
  covered by ``f``;
* loss-plus     ``L+(f, h, F) = |C(f) \\ C(F ∪ h \\ f)|`` — the [25] loss
  used by SWAP1, which additionally credits elements that ``h`` would keep
  covered.

Under the default objective all weights are 1 and the elements are the
embedding's vertices, so every quantity is the paper's distinct-vertex
count, in exact integer arithmetic.

:class:`CoverageTracker` maintains per-element multiplicity counts so all
four quantities are O(q) per call instead of O(k·q); this is our adaptation
of the PNP ("private-neighbor") index of the diversified clique work [33]
that the paper says it adapts for the swapping phase.

**Duplicate members and slot semantics.** A collection may transiently hold
two members with the *same* element set (SWAP algorithms admit duplicates).
Identity therefore lives in the slot id, not the element set: the scratch
:func:`loss` / :func:`loss_plus` take the member's *index* in the collection
(slot-based semantics), matching :meth:`CoverageTracker.loss` which takes a
slot. An earlier revision matched ``f`` by set equality, which is ambiguous
under duplicates — both copies would report the (correct) loss of "remove
one of them", but the caller could not say *which* member it was charging.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.coverage.objectives import VERTEX, Objective

EmbeddingSet = FrozenSet[int]


def as_vertex_set(embedding: Iterable[int]) -> EmbeddingSet:
    """Normalize an embedding (tuple or set) to a frozen vertex set."""
    return embedding if isinstance(embedding, frozenset) else frozenset(embedding)


def coverage(
    collection: Iterable[Iterable[int]], objective: Optional[Objective] = None
) -> int:
    """``|C(F)|`` for an arbitrary iterable of embeddings."""
    if objective is None or objective.name == "vertex":
        covered: Set[int] = set()
        for emb in collection:
            covered.update(emb)
        return len(covered)
    return objective.collection_coverage(collection)


def cover_set(
    collection: Iterable[Iterable[int]], objective: Optional[Objective] = None
) -> Set:
    """``C(F)`` as a set (of vertices, or of the objective's elements)."""
    covered: Set = set()
    if objective is None:
        for emb in collection:
            covered.update(emb)
        return covered
    for emb in collection:
        covered.update(objective.elements(emb))
    return covered


def benefit(
    h: Iterable[int],
    collection: Iterable[Iterable[int]],
    objective: Optional[Objective] = None,
) -> int:
    """``B(h, F)`` computed from scratch (prefer :class:`CoverageTracker`)."""
    if objective is None:
        covered = cover_set(collection)
        return sum(1 for v in set(h) if v not in covered)
    covered = cover_set(collection, objective)
    weight = objective.weight
    return sum(weight(e) for e in objective.elements(h) if e not in covered)


def loss(
    collection: Sequence[Iterable[int]],
    index: int,
    objective: Optional[Objective] = None,
) -> int:
    """``L(f, F)`` computed from scratch, for the member at ``collection[index]``.

    Slot-based semantics: the member is identified by *position*, so
    duplicate element sets are unambiguous — removing one copy of a
    duplicated member always loses 0 (its twin still covers everything).
    """
    members = list(collection)
    if not 0 <= index < len(members):
        raise ValueError(
            f"loss(F, index) requires a valid member index; got {index} "
            f"for a collection of {len(members)}"
        )
    obj = objective if objective is not None else VERTEX
    f_elems = obj.elements(members[index])
    others: Set = set()
    for i, emb in enumerate(members):
        if i != index:
            others.update(obj.elements(emb))
    weight = obj.weight
    if obj.unit_weights:
        return sum(1 for e in f_elems if e not in others)
    return sum(weight(e) for e in f_elems if e not in others)


def loss_plus(
    collection: Sequence[Iterable[int]],
    index: int,
    h: Iterable[int],
    objective: Optional[Objective] = None,
) -> int:
    """``L+(f, h, F)`` computed from scratch ([25]); slot-based like :func:`loss`."""
    obj = objective if objective is not None else VERTEX
    h_elems = obj.elements(h)
    members = list(collection)
    if not 0 <= index < len(members):
        raise ValueError(
            f"loss_plus(F, index, h) requires a valid member index; got {index} "
            f"for a collection of {len(members)}"
        )
    f_elems = obj.elements(members[index])
    others: Set = set(h_elems)
    for i, emb in enumerate(members):
        if i != index:
            others.update(obj.elements(emb))
    weight = obj.weight
    if obj.unit_weights:
        return sum(1 for e in f_elems if e not in others)
    return sum(weight(e) for e in f_elems if e not in others)


class CoverageTracker:
    """Incremental coverage/benefit/loss over a mutable embedding collection.

    The tracker stores each member embedding with a unique slot id (so
    duplicate element sets, which SWAP algorithms may transiently hold, are
    handled correctly) and a global ``element -> multiplicity`` counter.
    Under the default :data:`~repro.coverage.objectives.VERTEX` objective
    the elements are the embedding's vertices and all arithmetic is the
    paper's integer vertex counting; other objectives project embeddings
    through :meth:`Objective.elements` and weigh through
    :meth:`Objective.weight`.

    All of :meth:`benefit`, :meth:`loss`, and :meth:`loss_plus` run in
    O(|elements|); :meth:`add` / :meth:`remove` are O(|elements|) too.
    """

    def __init__(
        self,
        members: Iterable[Iterable[int]] = (),
        objective: Optional[Objective] = None,
    ) -> None:
        self.objective = objective if objective is not None else VERTEX
        self._unit = self.objective.unit_weights
        self._counts: Dict[object, int] = {}
        self._members: Dict[int, FrozenSet] = {}
        self._raw: Dict[int, Iterable[int]] = {}
        self._total = 0  # total covered weight; only maintained when weighted
        self._next_slot = 0
        # Losses only change when the collection changes, so the min-loss
        # member is cached between mutations (the PNP-index effect of [33]):
        # streaming scans pay O(1) per non-swapping embedding.
        self._min_loss_cache: Tuple[int, int] | None = None
        for emb in members:
            self.add(emb)

    def __len__(self) -> int:
        return len(self._members)

    def project(self, embedding: Iterable[int]) -> FrozenSet:
        """The objective's element set for ``embedding``."""
        return self.objective.elements(embedding)

    def members(self) -> List[FrozenSet]:
        """Current members' *element sets* in slot order (vertex sets by default)."""
        return [self._members[slot] for slot in sorted(self._members)]

    def member_embeddings(self) -> List[Iterable[int]]:
        """The members exactly as they were added, in slot order."""
        return [self._raw[slot] for slot in sorted(self._raw)]

    def slots(self) -> List[int]:
        """Slot ids of the current members (stable handles for removal)."""
        return sorted(self._members)

    def member(self, slot: int) -> FrozenSet:
        """The element set stored under ``slot``."""
        return self._members[slot]

    @property
    def coverage(self) -> int:
        """``|C(F)|`` (total covered weight) in O(1)."""
        return len(self._counts) if self._unit else self._total

    def covers(self, elem) -> bool:
        """Whether element ``elem`` is covered by some member."""
        return elem in self._counts

    def cover_set(self) -> Set:
        """A copy of ``C(F)`` (an element set)."""
        return set(self._counts)

    def covers_all(self, elems: AbstractSet) -> bool:
        """Whether ``elems ⊆ C(F)``, probing each element; copies nothing."""
        return self._counts.keys() >= elems

    def add(self, embedding: Iterable[int]) -> int:
        """Insert an embedding; returns its slot id."""
        return self.add_projected(self.objective.elements(embedding), embedding)

    def add_projected(self, elems: FrozenSet, embedding: Iterable[int]) -> int:
        """Insert a member whose element set was already computed."""
        slot = self._next_slot
        self._next_slot += 1
        self._members[slot] = elems
        self._raw[slot] = embedding
        counts = self._counts
        if self._unit:
            for e in elems:
                counts[e] = counts.get(e, 0) + 1
        else:
            weight = self.objective.weight
            for e in elems:
                c = counts.get(e, 0)
                if c == 0:
                    self._total += weight(e)
                counts[e] = c + 1
        self._min_loss_cache = None
        return slot

    def remove(self, slot: int) -> FrozenSet:
        """Remove the member at ``slot``; returns its element set."""
        elems = self._members.pop(slot)
        del self._raw[slot]
        counts = self._counts
        if self._unit:
            for e in elems:
                c = counts[e] - 1
                if c:
                    counts[e] = c
                else:
                    del counts[e]
        else:
            weight = self.objective.weight
            for e in elems:
                c = counts[e] - 1
                if c:
                    counts[e] = c
                else:
                    del counts[e]
                    self._total -= weight(e)
        self._min_loss_cache = None
        return elems

    def multiplicity(self, elem) -> int:
        """How many members cover element ``elem`` (0 when uncovered)."""
        return self._counts.get(elem, 0)

    def benefit(self, h: Iterable[int]) -> int:
        """``B(h, F)`` for a raw embedding (projected through the objective)."""
        return self.benefit_elements(self.objective.elements(h))

    def benefit_elements(self, elems: Iterable) -> int:
        """``B(h, F)`` for an already-projected element set."""
        counts = self._counts
        if self._unit:
            return sum(1 for e in elems if e not in counts)
        weight = self.objective.weight
        return sum(weight(e) for e in elems if e not in counts)

    def loss(self, slot: int) -> int:
        """``L(f, F)`` for the member at ``slot`` (Equation 1)."""
        counts = self._counts
        if self._unit:
            return sum(1 for e in self._members[slot] if counts[e] == 1)
        weight = self.objective.weight
        return sum(weight(e) for e in self._members[slot] if counts[e] == 1)

    def loss_plus(self, slot: int, h: Iterable) -> int:
        """``L+(f, h, F)`` ([25]); ``h`` is an *element set* (or vertex iterable
        under the default objective, where the two coincide)."""
        h_set = h if isinstance(h, frozenset) else frozenset(h)
        counts = self._counts
        if self._unit:
            return sum(
                1 for e in self._members[slot] if counts[e] == 1 and e not in h_set
            )
        weight = self.objective.weight
        return sum(
            weight(e)
            for e in self._members[slot]
            if counts[e] == 1 and e not in h_set
        )

    def min_loss_member(self) -> Tuple[int, int]:
        """``(slot, loss)`` of the member with the smallest ``L(f, F)``.

        O(1) between mutations thanks to the cached answer; O(k*q) to
        recompute after an add/remove.
        """
        if not self._members:
            raise ValueError("empty collection has no minimum-loss member")
        if self._min_loss_cache is None:
            best_slot = min(self._members, key=lambda s: (self.loss(s), s))
            self._min_loss_cache = (best_slot, self.loss(best_slot))
        return self._min_loss_cache

    def min_loss_plus_member(self, h: Iterable) -> Tuple[int, int]:
        """``(slot, loss_plus)`` minimizing ``L+(f, h, F)`` over members."""
        if not self._members:
            raise ValueError("empty collection has no minimum-loss member")
        h_set = h if isinstance(h, frozenset) else frozenset(h)
        best_slot = min(
            self._members, key=lambda s: (self.loss_plus(s, h_set), s)
        )
        return best_slot, self.loss_plus(best_slot, h_set)
