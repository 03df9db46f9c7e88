"""Semi-naive delta evaluation — the shared round engine.

Every round-based fixpoint computation in this library has the same
skeleton: discover the triggers enabled by the facts added in the
previous round, fire the not-yet-fired ones, collect the new facts,
repeat.  PR 1 gave the chase engine pivot-seeded indexed discovery;
this module extracts that machinery so the chase engines *and* the
termination deciders (the MFA Skolem chase, see
:mod:`repro.termination.mfa`) run on one implementation with one
invariant:

    **a round's triggers are materialized before any of them is
    applied.**

Discovering triggers lazily while mutating the instance lets facts
added by one firing leak into join levels of the *same* enumeration
(iterators entered later see them) — the pre-PR-2 MFA chase did
exactly that, making its round structure ill-defined.  Materializing
first makes rounds well-defined, engine-independent units.

With the interned fact core, discovery is **int-only**: frontier facts
are fact *ordinals* (log positions), pivot rows seed slot-based
resolved plans (:class:`repro.chase.triggers.RuleExec`), and the
produced triggers carry id tuples — Term objects never materialize on
this path.  The public surface still accepts Atom frontiers (they are
encoded on entry), and ``Trigger.assignment`` decodes lazily.

Two pieces live here:

* :func:`delta_triggers` — one discovery pass: triggers whose body
  match involves at least one fact of the delta, found via resolved
  pivot-seeded join execs;
* :class:`DeltaEngine` — the round driver owning the state that must
  survive across rounds: the frontier and the persistent fired-key
  set.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import BudgetExceededError
from ..model import Atom, Instance, TGD
from ..query import kernels
from .triggers import ChaseVariant, Trigger, rule_exec

FrontierFact = Union[int, Atom]

#: Under ``kernel="auto"`` a (rule, pivot) batch goes vectorized only
#: when the frontier hands it at least this many candidate rows — the
#: "fat round" threshold below which the tuple loop's lower constant
#: cost wins.  ``kernel="vector"`` batches unconditionally.
_FAT_ROUND_MIN = 512


def _group_rows(
    instance: Instance, new_facts: Sequence[FrontierFact]
) -> Dict[int, List[Tuple[int, ...]]]:
    """Frontier facts grouped into per-predicate-id row lists, in
    arrival order.  Atoms are encoded (interning); ordinals are read
    straight off the fact log."""
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    store = instance.store
    store.ensure_all()
    log_pids = store.log_pids
    log_rows = store.log_rows
    for fact in new_facts:
        if type(fact) is int:
            pid = log_pids[fact]
            row = log_rows[fact]
        else:
            pid = instance.pred_id(fact.predicate)
            term_id = instance.term_id
            row = tuple(term_id(t) for t in fact.terms)
        rows = groups.get(pid)
        if rows is None:
            groups[pid] = [row]
        else:
            rows.append(row)
    return groups


def delta_triggers(
    rules: Sequence[TGD],
    instance: Instance,
    new_facts: Sequence[FrontierFact],
    kernel: str = "tuple",
) -> Iterator[Trigger]:
    """Triggers whose body match involves at least one fact from
    ``new_facts`` (fact ordinals, or Atoms on the public surface).
    May repeat a trigger (when several body atoms hit new facts); the
    caller's fired-key set deduplicates.

    When ``kernel`` says so ("vector" always; "auto" for fat batches of
    at least :data:`_FAT_ROUND_MIN` candidate rows) and NumPy is
    installed, a (rule, pivot) batch is evaluated by the columnar
    batch kernel (:func:`repro.query.kernels.batch_rule_matches`)
    instead of the tuple loop.  The batch join is order-exact, so the
    trigger stream — ids, order, and all — is byte-identical either
    way.  NumPy is imported only once a batch qualifies."""
    groups = _group_rows(instance, new_facts)
    if not groups:
        return
    batch_always = kernel == "vector"
    batch_fat = batch_always or kernel == "auto"
    for rule_index, rule in enumerate(rules):
        body = rule.body
        for pivot in range(len(body)):
            pid = instance.pred_id_get(body[pivot].predicate)
            candidates = groups.get(pid) if pid is not None else None
            if not candidates:
                continue
            exec_ = rule_exec(instance, rule, pivot)
            if (
                batch_fat
                and (batch_always or len(candidates) >= _FAT_ROUND_MIN)
                and kernels.numpy_active()
            ):
                for ids in kernels.batch_rule_matches(
                    instance, exec_.pivot_step, exec_.rest,
                    candidates, exec_.emit_slots,
                ):
                    yield Trigger.from_ids(rule, rule_index, ids, instance)
                continue
            pivot_step = exec_.pivot_step
            rest = exec_.rest
            emit = exec_.emit
            assign: List[Optional[int]] = [None] * exec_.nslots
            for row in candidates:
                newly = pivot_step.match(row, assign)
                if newly is None:
                    continue
                if rest is None:
                    yield Trigger.from_ids(
                        rule, rule_index, emit(assign), instance
                    )
                else:
                    for match in rest.run(instance, assign):
                        yield Trigger.from_ids(
                            rule, rule_index, emit(match), instance
                        )
                for s in newly:
                    assign[s] = None


def ingest_facts(
    engine: "DeltaEngine", facts: Iterable[Atom]
) -> List[int]:
    """Append new *base* facts to the engine's instance and seed them
    into its frontier — the entry point of an incremental-maintenance
    leg (ROADMAP item 1: a new base-fact delta is just a resume leg
    with extra database rows).

    Facts must be ground and null-free (they are database rows, not
    chase derivations); the whole delta is validated **before** any
    fact is added, so an invalid delta is rejected without mutating
    the instance (all-or-nothing — a caller that catches the
    ``ValueError`` still holds a consistent engine).  Duplicates of
    existing facts are skipped.  Returns the log ordinals of the facts
    actually added, which the next ``next_round()`` treats exactly
    like facts fired by a previous round — discovery, fired-key dedup,
    and null numbering all proceed as if the chase had always known
    them.
    """
    checked = list(facts)
    for fact in checked:
        if not fact.is_ground():
            raise ValueError(
                f"ingested facts must be ground, got {fact}"
            )
        if fact.nulls():
            raise ValueError(
                f"ingested facts must be null-free base facts, "
                f"got {fact}"
            )
    instance = engine.instance
    added: List[int] = []
    for fact in checked:
        if not instance.add(fact):
            continue
        added.append(len(instance) - 1)
    if added:
        engine.notify(added)
    return added


class DeltaEngine:
    """Round-structured semi-naive trigger discovery.

    Owns the evaluation state that must survive across rounds:

    * the *frontier* — facts added since the last discovery pass
      (internally fact ordinals; ``notify`` also accepts Atoms);
    * the *fired-key set* — the identification key of every trigger
      ever handed out, so historical triggers are neither re-discovered
      nor re-keyed round after round.

    A trigger is identified by its ``Trigger.key(variant)``; one whose
    key was already handed out is dropped at discovery time, so each
    round is a duplicate-free materialized batch.  Protocol::

        engine = DeltaEngine(rules, instance, variant)
        while True:
            triggers = engine.next_round()    # materialized, deduped
            if not triggers:
                break                         # fixpoint
            for trigger in triggers:
                ...apply, then engine.notify(new_facts)...

    The instance is shared with the caller and must only be mutated
    *between* ``next_round`` calls — i.e. while applying a materialized
    round — never during one (``next_round`` itself never mutates it).

    ``kernel`` is the discovery tier :func:`delta_triggers` runs
    (``"tuple"``, ``"vector"`` or ``"auto"``; the trigger stream is the
    same on each).

    ``budget`` (optional, a :class:`repro.runtime.budget.Budget`) is
    checked during each round's discovery pass — every
    ``BUDGET_CHECK_EVERY`` discovered triggers — and raises
    :class:`~repro.errors.BudgetExceededError` when tripped.  Discovery
    is read-only, so an aborted pass leaves the instance exactly as the
    round started: callers catch the error and return a
    round-consistent partial result.
    """

    __slots__ = ("rules", "instance", "kernel", "fired", "budget",
                 "fired_log", "_frontier", "_variant")

    #: Budget-check cadence inside a round's discovery/dedup loop.
    BUDGET_CHECK_EVERY = 2048

    def __init__(
        self,
        rules: Sequence[TGD],
        instance: Instance,
        variant: str,
        budget=None,
        fired: Optional[Set[Hashable]] = None,
        frontier: Optional[Sequence[FrontierFact]] = None,
        kernel: str = "tuple",
    ):
        self.rules: List[TGD] = list(rules)
        self.instance = instance
        self.kernel = kernel
        # ``fired``/``frontier`` pre-seed the evaluation state when a
        # checkpointed run resumes (repro.chase.checkpoint): the set of
        # already-handed-out keys and the ordinals still awaiting a
        # discovery pass, exactly as persisted at the round boundary.
        self.fired: Set[Hashable] = set() if fired is None else fired
        self._variant = variant
        self.budget = budget
        #: When not None, every key newly added to ``fired`` is also
        #: appended here, in hand-out order — the checkpointer's
        #: append-only persistence feed (see :meth:`track_fired`).
        self.fired_log: Optional[List[Hashable]] = None
        # Intern every rule symbol up front, so rule-symbol ids come in
        # rule order before round 1 discovers anything.
        instance.prepare_rules(self.rules)
        # The first round treats every existing fact as new (unless a
        # resumed frontier says otherwise).
        self._frontier: List[FrontierFact] = (
            list(range(len(instance))) if frontier is None
            else list(frontier)
        )

    def track_fired(self) -> List[Hashable]:
        """Start (or return) the append-only log of newly fired keys —
        the checkpointer reads persistence tails off it.  Only keys
        handed out *after* this call are logged."""
        if self.fired_log is None:
            self.fired_log = []
        return self.fired_log

    def frontier_snapshot(self) -> Tuple[int, ...]:
        """The current frontier as a tuple of fact ordinals (the
        checkpoint wire form).  Engines on the int path only ever
        notify ordinals; Atom frontiers are rejected."""
        out: List[int] = []
        for fact in self._frontier:
            if type(fact) is not int:
                raise TypeError(
                    "cannot snapshot an Atom-bearing frontier; "
                    "checkpointing requires the int-only engine path"
                )
            out.append(fact)
        return tuple(out)

    def notify(self, facts: Iterable[Union[Atom, int]]) -> None:
        """Report facts added to the instance (Atoms or fact ordinals);
        they seed the next round's discovery pass."""
        self._frontier.extend(facts)

    def pending_facts(self) -> int:
        """How many facts await the next discovery pass."""
        return len(self._frontier)

    def next_round(self) -> List[Trigger]:
        """Materialize the next round: every not-yet-fired trigger whose
        body match involves a frontier fact, in deterministic discovery
        order (rule-major, then pivot position, then fact insertion
        order).  Returned triggers are marked fired.  An empty list
        means fixpoint — no frontier, or nothing new matched it."""
        frontier = self._frontier
        if not frontier:
            return []
        self._frontier = []
        discovered = delta_triggers(
            self.rules, self.instance, frontier, self.kernel
        )
        fired = self.fired
        out: List[Trigger] = []
        new_keys: List[Hashable] = []
        budget = self.budget
        check_every = self.BUDGET_CHECK_EVERY
        # Countdown instead of a modulo per trigger: the governed arm
        # pays one decrement-and-test per discovery, which is what
        # keeps the governed paired gate honest.
        check_in = check_every if budget is not None else -1
        # Keys are computed inline, as ``Trigger.key(variant)`` computes
        # them for the interned triggers discovery yields.
        semi = self._variant == ChaseVariant.SEMI_OBLIVIOUS
        try:
            for trigger in discovered:
                check_in -= 1
                if not check_in:
                    check_in = check_every
                    budget.raise_if_exceeded(facts=len(self.instance))
                ids = trigger._ids
                if semi:
                    get = trigger.rule._frontier_get
                    k = (trigger.rule_index, ids if get is None else get(ids))
                else:
                    k = (trigger.rule_index, ids)
                if k in fired:
                    continue
                fired.add(k)
                new_keys.append(k)
                out.append(trigger)
        except BudgetExceededError:
            # An aborted pass hands out nothing, so un-mark its keys
            # and restore the frontier: discovery is a pure read, and
            # a resumed run must re-discover this round identically.
            for k in new_keys:
                fired.discard(k)
            self._frontier = frontier
            raise
        log = self.fired_log
        if log is not None:
            log.extend(new_keys)
        return out
