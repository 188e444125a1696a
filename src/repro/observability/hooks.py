"""Profiling hooks: an opt-in callback protocol into the engines.

Benchmarks and tests used to observe engine internals by monkeypatching
(``DEADLINE_CHECK_STRIDE``, ``on_embedding`` closures); the hook protocol
replaces that with supported extension points. Subclass
:class:`ProfilingHooks`, override what you need, and hand the instance to
:class:`~repro.core.dsql.DSQL` via
``Instrumentation(hooks=...)`` — every callback is a no-op by default, and
engines skip hook dispatch entirely when no instrumentation is attached.

Callback frequency (what you may do inside them):

* :meth:`on_level_start` — once per (phase, level); arbitrarily heavy.
* :meth:`on_embedding_emitted` — once per generated embedding; keep it
  light on embedding-dense workloads.
* :meth:`on_swap` — once per Phase-2 swap *decision* (a generated embedding
  with positive benefit), accepted or not.
* :meth:`on_deadline_tick` — once per deadline stride check, i.e. every
  :data:`~repro.isomorphism.backtrack.DEADLINE_CHECK_STRIDE` expansions while a
  ``time_budget_ms`` is armed (the stride in force is the one the
  :class:`~repro.isomorphism.backtrack.ExpansionMeter` read when it last
  armed: on a search's first expansion and after every check); this is the
  only hook on (a 1/stride fraction of) the hot path, so it must stay cheap.

Hooks observe; they must not mutate engine state. Raising from a hook
aborts the query with the raised exception (no swallowing), which makes
them usable as test tripwires.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ProfilingHooks:
    """No-op base class for engine observation callbacks."""

    def on_level_start(
        self, phase: str, level: int, query_id: Optional[int] = None
    ) -> None:
        """A DSQL level begins. ``phase`` is ``"phase1"`` or ``"phase2"``."""

    def on_embedding_emitted(
        self,
        phase: str,
        level: int,
        embedding: Sequence[int],
        query_id: Optional[int] = None,
    ) -> None:
        """An embedding was generated.

        In Phase 1 this is an *accepted* member of ``T``; in Phase 2 it is a
        swap candidate (accepted or not — pair with :meth:`on_swap`). For
        the plain-SQ :class:`~repro.isomorphism.qsearch.QSearchEngine`,
        ``phase`` is ``"sq"`` and ``level`` is -1.
        """

    def on_swap(
        self,
        level: int,
        benefit: int,
        loss: float,
        accepted: bool,
        query_id: Optional[int] = None,
    ) -> None:
        """Phase 2 evaluated the SWAPα criterion on a positive-benefit
        candidate: ``accepted`` is ``B(h,T) >= (1+alpha) * L(f,T)``."""

    def on_deadline_tick(
        self,
        nodes_expanded: int,
        remaining_ms: float,
        stride: int,
        query_id: Optional[int] = None,
    ) -> None:
        """A stride deadline check ran; ``remaining_ms`` may be negative
        (the tick that trips the deadline reports its overshoot)."""
