"""The chase engine: oblivious, semi-oblivious, and restricted runs.

The engine executes a *fair* chase sequence: it works in rounds; each
round discovers the triggers enabled by the facts added in the
previous round (semi-naive evaluation — a trigger is found when some
body atom matches a new fact and the rest of the body matches the
instance) and applies the not-yet-fired ones in deterministic order.
Every trigger that ever becomes available is applied after finitely
many rounds, so the produced sequence satisfies the fairness condition
of §2.

A fresh, a resumed and an extended chase continue one fair sequence
through one private run class and its one round loop.  The round
machinery under it — pivot-seeded discovery, the frontier, the
persistent fired-key set — lives in :mod:`repro.chase.delta` and is
shared with the termination deciders' Skolem chase.

Termination is detected when a full round fires nothing.  A
``max_steps`` budget makes the engine total on non-terminating inputs
(the result then reports ``terminated=False``); the all-instance
termination *deciders* live in :mod:`repro.termination`, not here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import BudgetExceededError
from ..model import (
    Instance,
    NullFactory,
    TGD,
    validate_program,
)
from ..query.kernels import check_kernel
from ..runtime.budget import (
    STOP_FIXPOINT,
    STOP_STEP_BUDGET,
    Budget,
)
from .delta import DeltaEngine
from .result import ChaseResult, ChaseStep
from .triggers import (
    ChaseVariant,
    Trigger,
    apply_trigger_ids,
    head_satisfied,
)

DEFAULT_MAX_STEPS = 10_000

#: Budget-check cadence inside the firing loop (the round boundary is
#: always checked; this bounds how long a huge round can overrun).
_STEP_CHECK_EVERY = 64

def resource_stats(budget: Optional[Budget]) -> dict:
    """The ``ChaseResult.resource`` payload: the budget's accounting."""
    return {} if budget is None else budget.stats()


class _ChaseRun:
    """One chase run: its evaluation state and the round loop that
    advances it.

    Built fresh from a database (:meth:`_fresh`) or from a
    checkpointed store directory (:meth:`_stored`).  :meth:`_run_leg`
    drives it to its next stop and keeps on the object what a later
    leg continues from: the unapplied remainder of an interrupted
    round, the round count and the stop.  :func:`run_chase` and
    :func:`resume_chase` drive one leg;
    :class:`~repro.chase.incremental.ChaseSession` keeps the run
    resident and drives one more leg per ingested delta.
    """

    __slots__ = (
        "instance", "rules", "variant", "max_steps", "result",
        "_factory", "_engine", "_steps", "_ckpt",
        "_pending", "_rounds", "_terminated", "_stop_reason",
    )

    @classmethod
    def _new(
        cls,
        instance: Instance,
        rules: List[TGD],
        variant: str,
        max_steps: int,
        factory: NullFactory,
        steps: List[ChaseStep],
        budget: Optional[Budget],
        fired=None,
        frontier=None,
        kernel: str = "tuple",
    ) -> "_ChaseRun":
        """The part both constructors share: start ``budget`` and
        build the run's ``DeltaEngine``, which discovers on ``kernel``
        (no store records one, so a stored run discovers on
        ``"tuple"``).  The run has no checkpointer and nothing pending
        yet."""
        if budget is not None:
            budget.start()
        run = cls.__new__(cls)
        run.instance = instance
        run.rules = rules
        run.variant = variant
        run.max_steps = max_steps
        run.result = None
        run._factory = factory
        run._engine = DeltaEngine(
            rules, instance, variant,
            budget=budget, fired=fired, frontier=frontier, kernel=kernel,
        )
        run._steps = steps
        run._ckpt = None
        run._pending = ()
        run._rounds = 0
        run._terminated = False
        run._stop_reason = None
        return run

    @classmethod
    def _fresh(
        cls,
        database: Instance,
        rules: Sequence[TGD],
        variant: str,
        max_steps: int,
        kernel: str,
        budget: Optional[Budget],
        save: Optional[str],
        overwrite: bool,
    ) -> "_ChaseRun":
        """A run over a copy of ``database``, checkpointed into the
        directory ``save`` when given."""
        if variant not in ChaseVariant.ALL:
            raise ValueError(f"unknown chase variant {variant!r}")
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps}")
        check_kernel(kernel)
        rules = list(rules)
        validate_program(rules)
        instance = Instance(database)
        run = cls._new(instance, rules, variant, max_steps, NullFactory(),
                       [], budget, kernel=kernel)
        if save is not None:
            # Checkpoints (and the durable store under them) load only
            # for runs that save.
            from .checkpoint import Checkpointer

            run._engine.track_fired()
            run._ckpt = Checkpointer.create(
                save, instance, rules, variant, max_steps,
                overwrite=overwrite,
            )
            # Checkpoint 0: the database and the rule symbols.
            run._ckpt.checkpoint(run._engine, run._steps)
        return run

    @classmethod
    def _stored(
        cls,
        path: str,
        rules: Optional[Sequence[TGD]] = None,
        budget: Optional[Budget] = None,
        max_steps: Optional[int] = None,
        save: bool = True,
    ) -> "_ChaseRun":
        """The run checkpointed in the store directory ``path``, at
        its last checkpoint (see :func:`resume_chase` for the
        arguments).  A finished run comes back terminated, with its
        result set."""
        from ..storage.durable import open_store
        from .checkpoint import Checkpointer, load_state

        store = open_store(path)
        state = load_state(path, store)
        stored_rules = list(state["rules"])
        if rules is not None:
            if [str(r) for r in rules] != [str(r) for r in stored_rules]:
                raise ValueError(
                    f"{path}: supplied rules differ from the "
                    f"checkpointed program"
                )
        if max_steps is None:
            max_steps = state["max_steps"]
        store.ensure_all()
        instance = Instance(store=store)
        steps = [
            ChaseStep(
                Trigger.from_ids(stored_rules[ri], ri, ids, instance),
                instance, ords,
            )
            for ri, ids, ords in state["steps"]
        ]
        run = cls._new(
            instance, stored_rules, state["variant"], max_steps,
            NullFactory(start=state["null_next"]), steps, budget,
            fired=state["fired"], frontier=state["frontier"],
        )
        if save:
            run._engine.track_fired()
            run._ckpt = Checkpointer.attach(path, instance, state, max_steps)
        run._pending = tuple(
            Trigger.from_ids(stored_rules[ri], ri, tuple(ids), instance)
            for ri, ids in state["pending"]
        )
        run._rounds = state["rounds"]
        if state["terminated"]:
            run._terminated = True
            run._stop_reason = state["stop_reason"] or STOP_FIXPOINT
            run.result = ChaseResult(
                instance, True, steps, run.variant, max_steps,
                stop_reason=run._stop_reason,
            )
        return run

    def _run_leg(self, budget: Optional[Budget], rng=None) -> ChaseResult:
        """Drive the run to its next stop under ``budget``: replay the
        unapplied remainder of an interrupted round first, then
        materialize each round and apply it in canonical order
        (shuffled by ``rng`` when given), checkpointing at every round
        boundary and at the stop when a checkpointer is attached.
        Returns the result, also kept as ``self.result``."""
        instance = self.instance
        variant = self.variant
        max_steps = self.max_steps
        factory = self._factory
        engine = self._engine
        engine.budget = budget
        steps = self._steps
        ckpt = self._ckpt
        restricted = variant == ChaseVariant.RESTRICTED
        rounds = self._rounds

        def finish(terminated: bool, reason: str,
                   leftover: Sequence[Trigger] = ()) -> ChaseResult:
            if ckpt is not None:
                ckpt.checkpoint(engine, steps, leftover, rounds,
                                terminated, reason)
            self._pending = tuple(leftover)
            self._rounds = rounds
            self._terminated = terminated
            self._stop_reason = reason
            self.result = ChaseResult(
                instance, terminated, steps, variant, max_steps,
                stop_reason=reason,
                resource=resource_stats(budget),
            )
            return self.result

        def fire(round_triggers):
            """Apply one materialized round; returns ``(stop, fired)``
            where ``stop`` is a budget-stopped result (checkpointed with
            the round's unapplied remainder) or None."""
            fired = 0
            # Countdown rather than ``fired % _STEP_CHECK_EVERY``: the
            # governed arm pays one decrement-and-test per applied
            # trigger, keeping budget overhead inside the bench gate.
            check_in = _STEP_CHECK_EVERY if budget is not None else -1
            for position, trigger in enumerate(round_triggers):
                if restricted and head_satisfied(trigger, instance):
                    # Satisfied triggers never become unsatisfied, so
                    # skipping them for good — they are already in the
                    # engine's fired-key set — is safe.
                    continue
                new_ordinals = apply_trigger_ids(trigger, instance, factory)
                steps.append(ChaseStep(trigger, instance, new_ordinals))
                engine.notify(new_ordinals)
                fired += 1
                if len(steps) >= max_steps:
                    return finish(False, STOP_STEP_BUDGET,
                                  round_triggers[position + 1:]), fired
                check_in -= 1
                if not check_in:
                    check_in = _STEP_CHECK_EVERY
                    reason = budget.check(facts=len(instance))
                    if reason is not None:
                        return finish(False, reason,
                                      round_triggers[position + 1:]), fired
            return None, fired

        if len(steps) >= max_steps:
            # A resumed run whose step budget was not raised: stop where
            # the interrupted run stopped, byte-identically.
            return finish(False, STOP_STEP_BUDGET, self._pending)
        if self._pending:
            # Resume mid-round: replay the interrupted round's remainder.
            # Restricted head checks run against the current instance,
            # exactly as the uninterrupted engine checks each trigger at
            # its turn, so the firing sequence is byte-identical.
            stop, _ = fire(self._pending)
            if stop is not None:
                return stop
            if budget is not None:
                budget.note_round()
            rounds += 1
            if ckpt is not None:
                ckpt.checkpoint(engine, steps, (), rounds)
        while True:
            if budget is not None:
                reason = budget.check(facts=len(instance))
                if reason is not None:
                    return finish(False, reason)
            try:
                round_triggers = engine.next_round()
            except BudgetExceededError as exc:
                # Discovery is read-only and rolls its dedup state back:
                # instance and engine are still the round-start state,
                # i.e. round-consistent (and resumable).
                return finish(False, exc.stop_reason or STOP_STEP_BUDGET)
            if rng is not None:
                rng.shuffle(round_triggers)
            stop, fired_this_round = fire(round_triggers)
            if stop is not None:
                return stop
            if budget is not None:
                budget.note_round()
            rounds += 1
            if fired_this_round == 0:
                return finish(True, STOP_FIXPOINT)
            if ckpt is not None:
                ckpt.checkpoint(engine, steps, (), rounds)


def run_chase(
    database: Instance,
    rules: Sequence[TGD],
    variant: str = ChaseVariant.SEMI_OBLIVIOUS,
    max_steps: int = DEFAULT_MAX_STEPS,
    order_seed: Optional[int] = None,
    kernel: str = "tuple",
    budget: Optional[Budget] = None,
    save: Optional[str] = None,
    overwrite: bool = False,
) -> ChaseResult:
    """Run a fair ``variant`` chase of ``rules`` on ``database``.

    ``database`` is not mutated.  ``max_steps`` bounds the number of
    trigger applications; on exhaustion the result has
    ``terminated=False``.

    ``budget`` (a :class:`repro.runtime.budget.Budget`) adds wall-clock
    deadline, round/fact caps, a memory ceiling, and cooperative
    cancellation on top of ``max_steps``.  It is checked at every round
    boundary and every few trigger applications; a tripped budget stops
    the run *between* applications and returns a well-formed partial
    result whose ``stop_reason`` names the limit — the instance is
    always round-consistent (database plus exactly the recorded steps),
    never a mid-trigger state.

    Trigger discovery joins each rule body in the syntactic order
    (:func:`~repro.chase.triggers.rule_exec`), which fixes the
    discovery order within a round and hence the null numbering;
    head-satisfaction probes use the cost order (pure existence
    tests — order never shows).

    ``kernel`` selects the execution tier for trigger discovery (see
    :data:`repro.query.kernels.KERNELS`): ``"vector"`` runs rest-of-
    body joins as columnar batch hash joins, ``"auto"`` does so only
    for fat rounds (many candidate rows per pivot).  The batch join is
    order-exact, so every kernel produces a **byte-identical** chase —
    same facts in the same order, same trigger keys, same null
    numbering; only speed changes.  Without NumPy every kernel
    discovers with the tuple loop.

    For the oblivious and semi-oblivious variants, the paper recalls
    that all fair sequences agree on termination (CT_∀ = CT_∃), so the
    engine's fixed order is without loss of generality; pass an
    ``order_seed`` to shuffle the per-round trigger order and observe
    this empirically (``tests/test_sequences.py``).  The restricted
    chase is genuinely order-sensitive; the default order is one
    canonical fair sequence.

    ``save`` names a directory to checkpoint the run into (a durable
    fact store plus the evaluation state, see
    :mod:`repro.chase.checkpoint`) at every round boundary and at the
    stop; :func:`resume_chase` continues such a run from exactly where
    it stopped, byte-identically to the uninterrupted run.
    ``overwrite`` replaces an existing store at that path.
    Incompatible with ``order_seed`` (a shuffled order is not
    reconstructible).
    """
    if save is not None and order_seed is not None:
        raise ValueError(
            "save is incompatible with order_seed: a shuffled "
            "round order cannot be reconstructed at resume"
        )
    run = _ChaseRun._fresh(database, rules, variant, max_steps, kernel,
                           budget, save, overwrite)
    rng = None
    if order_seed is not None:
        import random

        rng = random.Random(order_seed)
    return run._run_leg(budget, rng)


def resume_chase(
    path: str,
    rules: Optional[Sequence[TGD]] = None,
    *,
    budget: Optional[Budget] = None,
    max_steps: Optional[int] = None,
    save: bool = True,
) -> ChaseResult:
    """Continue a checkpointed chase from a store directory.

    The store carries everything a continuation needs — facts, symbol
    ids, applied steps, fired keys, frontier, null counter, the rules
    themselves — so ``rules`` is optional; when supplied it is checked
    against the checkpointed program (by string form) and mismatches
    are refused.  The continued run is byte-identical to the
    uninterrupted run: same facts in the same order, same trigger
    keys, same null numbering, same provenance.

    ``max_steps`` (default: the checkpointed value) must be raised
    above the recorded step count to make progress after a
    ``step_budget`` stop; ``budget`` is a *fresh* budget for this leg
    (deadlines restart — wall-clock spent before the stop is not
    carried over).  ``save=False`` continues in memory without
    advancing the on-disk checkpoint.  A store whose run already
    terminated returns the finished result immediately.
    """
    run = _ChaseRun._stored(path, rules, budget, max_steps, save)
    if run._terminated:
        return run.result
    return run._run_leg(budget)
