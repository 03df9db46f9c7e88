"""The looping operator — entailment ⟶ co-(chase termination).

The paper's lower bounds (Theorems 3 and 4) all factor through one
"generic technique, called the looping operator, [which] allows us to
obtain lower bounds for the chase termination problem in a uniform
way: a generic reduction from propositional atom entailment to the
complement of chase termination."

Given an entailment instance — a guarded, terminating rule set Σ, a
database D, and a 0-ary goal predicate ``p`` — the operator produces a
guarded rule set ``loop(Σ, D, p)`` whose chase behaves as follows on
*standard* databases (Theorem 4's setting):

1. any standard database kicks off a **run**: a fresh tag ``T`` plus a
   fresh copy of D's constants, laid out by a single guarded rule;
2. D's facts are rebuilt over the fresh constants, tagged with ``T``,
   and a tagged copy ``Σ̂`` of Σ reasons over them;
3. if the run derives the goal ``p̂(T)``, a **restart** rule fires,
   creating a brand-new tag and re-running the whole simulation.

Hence: D ∧ Σ ⊨ p ⇒ every run rederives the goal and restarts forever —
the chase diverges on the minimal standard database, so
``loop(Σ,D,p) ∉ CT``.  Conversely if D ∧ Σ ⊭ p, every run (including
runs seeded by adversarial "junk" database atoms, which can fake at
most finitely many restarts — each restart rule key fires once) fails
to rederive the goal, and since Σ itself is terminating the whole
chase terminates on every database: ``loop(Σ,D,p) ∈ CT``.

The *tagging* is what defeats junk: the goal must be derived **with
the current run's tag**, so a planted 0-ary goal cannot refuel the
restart loop.  Tagging preserves guardedness (the original guard plus
the shared tag variable still guards) and linearity.

Preconditions (checked): Σ guarded, goal 0-ary, and — for the ⇐
direction — Σ ∈ CT for the chase variant of interest (the paper
applies the operator to terminating-by-construction simulations; pass
``check_termination=False`` to skip the check).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..chase.critical import ZERO_PREDICATE
from ..classes import is_guarded
from ..errors import UnsupportedClassError
from ..model import (
    Atom,
    Constant,
    Instance,
    Predicate,
    TGD,
    Variable,
    validate_program,
)

TAG_SUFFIX = "__t"
RUN_PREDICATE = Predicate("loop_run", 1)
SUCC_PREDICATE = Predicate("loop_succ", 2)


class LoopingProgram:
    """The output of the looping operator.

    ``rules`` is the transformed program; ``goal`` the tagged goal
    predicate; ``dom_predicate`` the layout predicate carrying the
    per-run copy of D's constants.
    """

    __slots__ = ("rules", "goal", "dom_predicate", "constants")

    def __init__(
        self,
        rules: List[TGD],
        goal: Predicate,
        dom_predicate: Predicate,
        constants: Tuple[Constant, ...],
    ):
        self.rules = rules
        self.goal = goal
        self.dom_predicate = dom_predicate
        self.constants = constants

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)


def tag_predicate(predicate: Predicate) -> Predicate:
    """The tagged variant ``R̂``: one extra leading tag position."""
    return Predicate(predicate.name + TAG_SUFFIX, predicate.arity + 1)


def tag_atom(atom: Atom, tag: Variable) -> Atom:
    """``R(t̄) ↦ R̂(tag, t̄)``."""
    return Atom(tag_predicate(atom.predicate), (tag,) + atom.terms)


def tag_rule(rule: TGD, tag_name: str = "LoopTag") -> TGD:
    """Tag every atom of ``rule`` with one shared tag variable.

    Preserves guardedness (the original guard atom, extended with the
    tag shared by all atoms, still covers all body variables) and
    linearity (atom counts are unchanged).
    """
    tag = Variable(tag_name)
    if tag in rule.body_variables | rule.head_variables:
        tag = Variable(tag_name + "_0")
    return TGD(
        [tag_atom(a, tag) for a in rule.body],
        [tag_atom(a, tag) for a in rule.head],
        label=(rule.label + TAG_SUFFIX) if rule.label else "",
    )


def looping_operator(
    rules: Sequence[TGD],
    database: Instance,
    goal: Predicate,
    check_termination: bool = True,
    variant: str = "semi_oblivious",
) -> LoopingProgram:
    """Apply the looping operator to the entailment instance
    ``(rules, database, goal)``.

    Returns a guarded program Σ' with: Σ' ∈ CT_variant (over standard
    databases)  ⇔  database ∧ rules ⊭ goal.

    The ``check_termination`` precondition runs the guarded decider's
    type saturation.
    """
    rules = list(rules)
    validate_program(rules)
    if goal.arity != 0:
        raise UnsupportedClassError(
            f"the looping operator reduces *propositional* atom "
            f"entailment; goal {goal} is not 0-ary"
        )
    if not is_guarded(rules):
        raise UnsupportedClassError(
            "the looping operator requires guarded rules"
        )
    if database.nulls():
        raise ValueError("the looping operator needs a null-free database")
    if check_termination:
        from ..termination import decide_termination

        if not decide_termination(rules, variant=variant).terminating:
            raise UnsupportedClassError(
                "the looping operator requires a terminating base program "
                "(otherwise the reduction is vacuous); pass "
                "check_termination=False to override"
            )

    constants: Tuple[Constant, ...] = tuple(sorted(database.constants()))
    k = len(constants)
    dom_predicate = Predicate("loop_dom", 1 + k)
    constant_var: Dict[Constant, Variable] = {
        c: Variable(f"C{i + 1}") for i, c in enumerate(constants)
    }
    tag = Variable("T")
    dom_atom = Atom(
        dom_predicate, (tag,) + tuple(constant_var[c] for c in constants)
    )

    out: List[TGD] = []
    # (1) Every standard database starts a run.
    start_var = Variable("X")
    out.append(
        TGD(
            [Atom(ZERO_PREDICATE, [start_var])],
            [Atom(RUN_PREDICATE, [tag])],
            label="loop_start",
        )
    )
    # (2) A run lays out a fresh copy of D's constants.
    out.append(
        TGD(
            [Atom(RUN_PREDICATE, [tag])],
            [dom_atom],
            label="loop_layout",
        )
    )
    # (3) D's facts, rebuilt over the copied constants, tagged.
    for index, fact in enumerate(sorted(database, key=str)):
        head = Atom(
            tag_predicate(fact.predicate),
            (tag,) + tuple(constant_var[t] for t in fact.terms),
        )
        out.append(TGD([dom_atom], [head], label=f"loop_fact{index + 1}"))
    # (4) The tagged copy of Σ.
    for rule in rules:
        out.append(tag_rule(rule))
    # (5) The restart: a derived (tagged) goal relaunches the run with
    # a fresh tag.  The successor atom keeps the old tag in the
    # frontier so every restart is a genuinely new trigger for both
    # the oblivious and the semi-oblivious chase.
    goal_tagged = tag_predicate(goal)
    new_tag = Variable("T2")
    out.append(
        TGD(
            [Atom(goal_tagged, [tag]), dom_atom],
            [
                Atom(RUN_PREDICATE, [new_tag]),
                Atom(SUCC_PREDICATE, [tag, new_tag]),
            ],
            label="loop_restart",
        )
    )
    return LoopingProgram(out, goal_tagged, dom_predicate, constants)
