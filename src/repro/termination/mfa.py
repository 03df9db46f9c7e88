"""Model-faithful acyclicity (MFA) — the strongest of the classic
sufficient conditions, via the Skolem chase.

Cuenca Grau et al. (KR 2012 — the paper's citation [8]) replace each
existential variable z of rule σ by a Skolem function ``f_{σ,z}`` over
the rule's frontier.  The Skolem chase of the critical instance then
either reaches a fixpoint — Σ is MFA, and the semi-oblivious chase
terminates on every database — or produces a *cyclic* term in which
some ``f_{σ,z}`` is nested inside itself, in which case MFA fails
(though Σ may still terminate: MFA is sufficient, not exact).

The Skolem chase *is* the semi-oblivious chase with memoised witnesses
(two triggers agreeing on the frontier build the same Skolem terms),
which is why MFA under-approximates CT_so specifically.

Evaluation runs on the shared semi-naive round engine
(:class:`repro.chase.delta.DeltaEngine`): each round's triggers are
discovered from the previous round's delta via compiled pivot-seeded
join plans and **materialized before any fact is added** — the
pre-delta implementation mutated the instance while the body
homomorphisms were still being enumerated, so facts added by one
firing could leak into later join levels of the same enumeration.  The
``(rule, frontier-image)`` fired-key set persists across rounds, so a
historical trigger is never re-keyed and its Skolem terms never
rebuilt.

Hierarchy validated by the test-suite and measured by the E11 ablation
benchmark:  WA ⊆ JA ⊆ MFA ⊆ CT_so.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..chase.critical import critical_instance
from ..chase.delta import DeltaEngine
from ..chase.triggers import ChaseVariant, _head_template
from ..errors import BudgetExceededError
from ..model import (
    Constant,
    Instance,
    TGD,
    Term,
    validate_program,
)
from ..runtime.budget import Budget

DEFAULT_MFA_STEPS = 20_000


class SkolemTerm(Constant):
    """``f_{σ,z}(args...)`` encoded as a structured constant.

    Subclassing :class:`Constant` lets Skolem terms live in ordinary
    instances; equality/hash go through the structured name, so two
    triggers with equal frontier images build identical terms — the
    semi-oblivious identification, for free.

    Terms are immutable and built bottom-up, so the nesting depth and
    the set of Skolem symbols occurring inside the arguments are
    computed once at construction from the (already computed) caches of
    the argument terms.  This keeps :meth:`contains_symbol`,
    :meth:`is_cyclic` and :meth:`depth` O(1) and recursion-free — the
    recursive originals blew the interpreter's recursion limit on terms
    nested a few hundred levels deep, well inside the step budget.
    """

    __slots__ = ("symbol", "args", "_depth", "_nested_symbols")

    def __init__(self, symbol: Tuple[int, str], args: Tuple[Term, ...]):
        super().__init__(("skolem", symbol, args))
        self.symbol = symbol
        self.args = args
        depth = 1
        nested: Set[Tuple[int, str]] = set()
        for arg in args:
            if isinstance(arg, SkolemTerm):
                if arg._depth >= depth:
                    depth = arg._depth + 1
                nested.add(arg.symbol)
                nested |= arg._nested_symbols
        self._depth = depth
        self._nested_symbols = frozenset(nested)

    def __str__(self) -> str:
        rule_index, var = self.symbol
        inner = ", ".join(str(a) for a in self.args)
        return f"f{rule_index}_{var}({inner})"

    def __reduce__(self):
        # Override Constant's interned reduction: rebuild as a
        # SkolemTerm (recursing through args) so depth/cycle caches and
        # the cached hash are recomputed on the receiving interpreter.
        return (self.__class__, (self.symbol, self.args))

    def contains_symbol(self, symbol: Tuple[int, str]) -> bool:
        """Does ``symbol`` occur anywhere inside this term's arguments?"""
        return symbol in self._nested_symbols

    def is_cyclic(self) -> bool:
        """True iff this term's own symbol occurs nested inside it."""
        return self.symbol in self._nested_symbols

    def depth(self) -> int:
        """Nesting depth (1 for a term over base constants)."""
        return self._depth


def _witness_key(term: SkolemTerm) -> Tuple:
    """A total, recursion-free order on Skolem terms, used to pick the
    canonical (least) cyclic witness of a round."""
    encoding: List[Tuple] = []
    stack: List[Term] = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, SkolemTerm):
            encoding.append(("f", t.symbol))
            stack.extend(reversed(t.args))
        else:
            encoding.append(("c", str(t)))
    return (term.depth(), tuple(encoding))


def skolem_chase(
    database: Instance,
    rules: Sequence[TGD],
    max_steps: int = DEFAULT_MFA_STEPS,
    budget: Optional[Budget] = None,
) -> Tuple[Instance, Optional[SkolemTerm], bool]:
    """Run the Skolem chase.

    Returns ``(instance, first_cyclic_term, reached_fixpoint)``; the
    run stops at the first round producing a cyclic term (MFA is
    already refuted), at a fixpoint, or on budget (then both flags are
    falsy and the caller should raise).

    ``budget`` adds deadline/memory/cancellation governance on top of
    ``max_steps``; it is checked at round boundaries and every few
    fact additions.  A tripped budget stops the run exactly like step
    exhaustion (both flags falsy, the instance round-consistent) and
    records its reason in ``budget.stop_reason``.

    The witness is canonical: rounds are well-defined units (each
    round's triggers are materialized against the round-start instance
    before any fact is added), so the set of cyclic terms a round
    produces does not depend on intra-round enumeration order, and the
    least such term of the earliest cyclic round is returned.  Once a
    round turns up a cyclic term, the remaining triggers of that round
    are only scanned for further witnesses, not applied.
    """
    rules = list(rules)
    validate_program(rules)
    instance = Instance(database)
    if budget is not None:
        budget.start()
    engine = DeltaEngine(
        rules, instance, ChaseVariant.SEMI_OBLIVIOUS, budget=budget
    )
    steps = 0
    decode = instance.symbols.obj
    term_id = instance.term_id
    add_row = instance.add_row
    while True:
        if budget is not None:
            if budget.check(facts=len(instance)) is not None:
                return instance, None, False
        try:
            triggers = engine.next_round()
        except BudgetExceededError:
            # Discovery is read-only; the instance is the round-start
            # state and budget.stop_reason records why we stopped.
            return instance, None, False
        if not triggers:
            return instance, None, True
        cyclic: List[SkolemTerm] = []
        for trigger in triggers:
            rule = trigger.rule
            # Triggers arrive in interned form; only the frontier image
            # is decoded — Skolem terms are built over real Terms, then
            # interned back so head rows stay int-level.
            ids = trigger.ids(instance)
            skolem_args = tuple(
                decode(ids[i]) for i in rule.frontier_body_indices
            )
            terms: List[SkolemTerm] = []
            for var in rule.existentials_sorted:
                term = SkolemTerm((trigger.rule_index, var.name), skolem_args)
                if term.is_cyclic():
                    cyclic.append(term)
                terms.append(term)
            if cyclic:
                # Witness-scan mode: keep checking the round's remaining
                # triggers for cyclic terms, but stop growing the
                # instance.
                continue
            template = _head_template(instance, rule, trigger.rule_index)
            exist_ids = [term_id(t) for t in terms]
            for pid, _, build in template.atoms:
                ordinal = add_row(pid, build(ids, exist_ids))
                if ordinal is not None:
                    engine.notify((ordinal,))
                    steps += 1
                    if steps >= max_steps:
                        return instance, None, False
                    if (
                        budget is not None
                        and not steps % 64
                        and budget.check(facts=len(instance)) is not None
                    ):
                        return instance, None, False
        if cyclic:
            return instance, min(cyclic, key=_witness_key), False
        if budget is not None:
            budget.note_round()


def is_mfa(
    rules: Sequence[TGD],
    max_steps: int = DEFAULT_MFA_STEPS,
    budget: Optional[Budget] = None,
) -> bool:
    """Model-faithful acyclicity of Σ (checked over the critical
    instance).  Raises :class:`BudgetExceededError` if the Skolem
    chase neither cycles nor saturates within ``max_steps`` facts (or
    within ``budget``) — the MFA verdict is then *unknown*, and the
    error's ``stop_reason``/``stats`` say which limit tripped."""
    rules = list(rules)
    if not rules:
        return True
    database = critical_instance(rules)
    _, cyclic, fixpoint = skolem_chase(
        database, rules, max_steps, budget=budget,
    )
    if cyclic is not None:
        return False
    if fixpoint:
        return True
    if budget is not None and budget.stop_reason is not None:
        raise BudgetExceededError(
            f"the Skolem chase stopped on its resource budget "
            f"({budget.stop_reason}) before cycling or saturating; "
            f"the MFA verdict is unknown",
            stop_reason=budget.stop_reason,
            stats=budget.stats(),
        )
    raise BudgetExceededError(
        f"the Skolem chase neither cycled nor saturated within "
        f"{max_steps} facts; raise max_steps",
        stop_reason="step_budget",
    )


def mfa_witness(
    rules: Sequence[TGD],
    max_steps: int = DEFAULT_MFA_STEPS,
    budget: Optional[Budget] = None,
) -> Optional[SkolemTerm]:
    """The first cyclic Skolem term, or ``None`` when Σ is MFA."""
    rules = list(rules)
    if not rules:
        return None
    _, cyclic, _ = skolem_chase(
        critical_instance(rules), rules, max_steps, budget=budget,
    )
    return cyclic
