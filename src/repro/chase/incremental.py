"""Incremental chase maintenance: a long-lived chase you can extend.

The one-shot entry points (:func:`~repro.chase.engine.run_chase`,
:func:`~repro.chase.engine.resume_chase`) drive one leg of the
engine's run class and drop it when they return.  A
:class:`ChaseSession` is that same run kept alive — the
:class:`~repro.chase.delta.DeltaEngine` with its persistent fired-key
set and frontier, the null counter, the step log, and (optionally)
the checkpointer — so that when new *base facts* arrive
the chase is **resumed from the delta** instead of re-run: the new
rows are appended, seeded into the semi-naive frontier, and the round
loop continues exactly as if the interrupted run had always contained
them (ROADMAP items 1 and 4: "a new base-fact delta is just a resume
leg with extra database rows").

Equivalence guarantees of an extension leg (``tests/test_incremental.py``
holds the engine to all three):

* **Byte-identical across persistence paths.**  For a fixed arrival
  schedule (base facts, then deltas, in order), the maintained
  instance — facts order, trigger keys, provenance, null numbering —
  is byte-identical with or without a durable store underneath, and
  identical to stopping the process and continuing the legs via
  :func:`extend_chase` on the saved directory.
* **Skolem-equal to the from-scratch union chase.**  For the oblivious
  and semi-oblivious variants, the maintained instance equals the
  from-scratch chase of ``D ∪ Δ`` up to the inevitable renaming and
  reordering of labelled nulls: canonicalizing each null by the
  (rule, variant-projected trigger key, output position) that minted
  it makes the two fact *sets* equal.  (Literal byte-identity of the
  two logs is impossible for any in-place maintenance scheme — the
  union run interleaves Δ-dependent derivations earlier and therefore
  numbers nulls differently.)
* **Certain answers agree for every variant.**  Each restricted-chase
  extension leg fires only triggers whose head is unsatisfied, so the
  maintained instance is still a universal model of ``D ∪ Δ`` w.r.t.
  the rules; certain answers (and ground-atom entailment) computed
  over it coincide with the from-scratch restricted chase of the
  union, even when the two fact sets differ (the restricted chase is
  order-sensitive; both results are equally valid universal models).

Reads stay consistent *during* an extension: the columnar store is
append-only, so :meth:`ChaseSession.snapshot` (taken between legs)
pins a row-count watermark that concurrent readers can query while
the next leg appends — the query server (:mod:`repro.serve`) is built
on exactly this.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..model import Atom, Instance, TGD
from ..model.instances import SnapshotInstance
from ..runtime.budget import Budget
from .delta import ingest_facts
from .engine import DEFAULT_MAX_STEPS, _ChaseRun
from .result import ChaseResult
from .triggers import ChaseVariant


class ChaseSession(_ChaseRun):
    """A resident chase: run once, then extend with base-fact deltas.

    Create with :meth:`start` (fresh database) or :meth:`resume`
    (checkpointed store directory); both run the chase to its stop and
    keep the evaluation state resident.  :meth:`extend` then appends a
    delta of new base facts and continues the *same* run — semi-naive
    discovery from the delta only, the persistent fired-key set
    guaranteeing no historical trigger refires, null numbering
    continuing where it stood.

    Sessions are single-writer: calls to :meth:`extend` must be
    serialized by the caller (the server holds a lock).  Concurrent
    *readers* use :meth:`snapshot` — a watermark view that stays
    consistent while the next extension appends.

    When the session was started with ``save=...`` (or resumed from a
    store), every leg checkpoints as it goes, so ingested deltas and
    their derived facts are durable: killing the process and calling
    :meth:`resume` (or :func:`~repro.chase.engine.resume_chase`)
    continues byte-identically.
    """

    __slots__ = ("_closed",)

    def __init__(self):
        raise TypeError(
            "use ChaseSession.start(...) or ChaseSession.resume(...)"
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def start(
        cls,
        database: Instance,
        rules: Sequence[TGD],
        *,
        variant: str = ChaseVariant.SEMI_OBLIVIOUS,
        max_steps: int = DEFAULT_MAX_STEPS,
        kernel: str = "tuple",
        budget: Optional[Budget] = None,
        save: Optional[str] = None,
        overwrite: bool = False,
    ) -> "ChaseSession":
        """Chase ``database`` with ``rules`` and keep the run resident.

        Accepts the same knobs as :func:`~repro.chase.engine.run_chase`
        (minus ``order_seed``, which is incompatible with deterministic
        continuation) and chases in the same join order; ``budget``
        governs this initial leg only — each :meth:`extend` takes its
        own.
        """
        session = cls._fresh(database, rules, variant, max_steps, kernel,
                             budget, save, overwrite)
        session._closed = False
        session._run_leg(budget)
        return session

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        budget: Optional[Budget] = None,
        max_steps: Optional[int] = None,
        save: bool = True,
    ) -> "ChaseSession":
        """Reopen a checkpointed store directory as a resident session.

        Unlike :func:`~repro.chase.engine.resume_chase`, a store whose
        run already *terminated* is still useful here: the session
        opens it without re-chasing and is immediately ready for
        :meth:`extend`.  An unfinished store is first driven to its
        stop (under ``budget``), exactly like ``resume_chase``.
        """
        session = cls._stored(path, budget=budget, max_steps=max_steps,
                              save=save)
        session._closed = False
        if not session._terminated:
            session._run_leg(budget)
        return session

    # -- the legs ------------------------------------------------------------

    def extend(
        self,
        facts: Iterable[Atom],
        *,
        budget: Optional[Budget] = None,
        max_steps: Optional[int] = None,
    ) -> ChaseResult:
        """Ingest a delta of new base facts and continue the chase.

        ``facts`` must be ground and null-free; duplicates of existing
        facts are skipped (an all-duplicate delta is a cheap no-op
        leg).  The new rows are appended to the resident instance,
        seeded into the semi-naive frontier, and the round loop runs
        to its next stop — firing only triggers that involve the delta
        (directly or transitively), never refiring history.

        ``max_steps`` raises the session's total step cap (a session
        stopped on ``step_budget`` stays stopped until it is raised);
        ``budget`` governs this leg only.  Returns the updated
        :class:`~repro.chase.result.ChaseResult` (also kept as
        ``session.result``); when the session checkpoints, the delta
        and everything derived from it are durable at return.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if max_steps is not None:
            if max_steps <= 0:
                raise ValueError(
                    f"max_steps must be positive, got {max_steps}"
                )
            self.max_steps = max_steps
            if self._ckpt is not None:
                self._ckpt.set_max_steps(max_steps)
        if budget is not None:
            budget.start()
        added = ingest_facts(self._engine, facts)
        if not added and self._terminated and not self._pending:
            # Every fact was already present: the resident result is
            # already the chase of the (unchanged) union.  Only a new
            # cap is news; the header and the result record it (the
            # step and fired tails are empty).
            ckpt = self._ckpt
            if ckpt is not None and ckpt._written_max_steps != ckpt.max_steps:
                ckpt.checkpoint(self._engine, self._steps, (), self._rounds,
                                True, self._stop_reason)
            result = self.result
            if result.max_steps != self.max_steps:
                self.result = ChaseResult(
                    self.instance, True, self._steps, self.variant,
                    self.max_steps, stop_reason=self._stop_reason,
                    resource=result.resource,
                )
            return self.result
        return self._run_leg(budget)

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> SnapshotInstance:
        """A consistent read-only view of the instance at its current
        size.  Call between legs (never concurrently with
        :meth:`extend`); the returned view stays valid and consistent
        while later legs append."""
        return self.instance.snapshot()

    @property
    def watermark(self) -> int:
        """The current fact count — the row-count high-water mark new
        snapshots are pinned to."""
        return len(self.instance)

    @property
    def terminated(self) -> bool:
        """True iff the last leg reached a fixpoint."""
        return self._terminated

    @property
    def stop_reason(self) -> Optional[str]:
        """The last leg's stop reason (see ``STOP_REASONS``)."""
        return self._stop_reason

    @property
    def step_count(self) -> int:
        """Total trigger applications across all legs."""
        return len(self._steps)

    @property
    def store_path(self) -> Optional[str]:
        """The durable store directory this session checkpoints to, or
        ``None`` for a memory-only session.  Siblings of the fact data
        (e.g. the serve layer's write-ahead ingest journal) anchor
        themselves here."""
        if self._ckpt is None:
            return None
        return self._ckpt.writer.path

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Mark the session closed: :meth:`extend` then refuses.
        Idempotent; the instance and result remain readable."""
        self._closed = True

    def __enter__(self) -> "ChaseSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def extend_chase(
    path: str,
    facts: Iterable[Atom],
    *,
    budget: Optional[Budget] = None,
    max_steps: Optional[int] = None,
) -> ChaseResult:
    """One-shot incremental leg over a checkpointed store directory:
    open, ingest ``facts``, chase the delta to its stop, checkpoint,
    close.  The durable sibling of :meth:`ChaseSession.extend` — the
    result is byte-identical to a resident session fed the same
    arrival schedule.

    ``max_steps`` raises the recorded total step cap for this and
    later legs.  Finished stores are extended without re-chasing;
    unfinished stores first continue to their stop (both under
    ``budget``).
    """
    with ChaseSession.resume(
        path, budget=budget, max_steps=max_steps,
    ) as session:
        return session.extend(facts, budget=budget)
