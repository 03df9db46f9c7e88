"""Atom entailment under guarded TGDs.

``D ∧ Σ ⊨ a`` for a ground atom ``a`` holds iff ``a`` belongs to every
model of D and Σ, equivalently iff the chase derives ``a``.  The chase
may be infinite, but for *guarded* Σ the atoms derivable over the
database constants are computed by the same type-saturation fixpoint
that powers the Theorem 4 decider — rooted at D instead of the
critical instance (local closure + up-propagation from child bags is
precisely how the guarded chase populates the database's terms).

The paper's lower bounds reduce *propositional* (0-ary) atom
entailment to the complement of chase termination through the looping
operator (:mod:`repro.entailment.looping`); this module provides the
entailment side of that reduction, and doubles as a general-purpose
guarded reasoner.
"""

from __future__ import annotations

from typing import Sequence

from ..model import Atom, Database, Instance, TGD
from ..termination.saturation import DEFAULT_MAX_TYPES, TypeAnalysis


def entails_atom(
    rules: Sequence[TGD],
    database: Instance,
    atom: Atom,
    max_types: int = DEFAULT_MAX_TYPES,
    budget=None,
) -> bool:
    """Decide ``database ∧ rules ⊨ atom`` for guarded ``rules``.

    ``atom`` must be ground and over the database/program constants —
    entailment of atoms mentioning unknown constants is vacuously
    false, and this function returns False for them.

    The saturation fixpoint's body-vs-cloud joins run in the cost
    order (:mod:`repro.query.planner`).
    """
    if not atom.is_ground():
        raise ValueError(f"entailment is defined for ground atoms, got {atom}")
    if atom.nulls():
        raise ValueError(f"entailment queries must be null-free, got {atom}")
    analysis = TypeAnalysis(
        rules, database=database, max_types=max_types, budget=budget,
    )
    if atom.predicate not in analysis.schema:
        return False
    try:
        classes = tuple(analysis.constant_class[t] for t in atom.terms)
    except KeyError:
        return False
    analysis.saturate()
    return (
        (atom.predicate, classes)
        in analysis.saturated_cloud(analysis.root)
    )


def saturated_facts(
    rules: Sequence[TGD],
    database: Instance,
    max_types: int = DEFAULT_MAX_TYPES,
    budget=None,
) -> Database:
    """All facts over the database's constants entailed by D ∧ Σ.

    This is the restriction of the (possibly infinite) chase to the
    original constants — finite and exactly computable for guarded Σ.
    """
    analysis = TypeAnalysis(
        rules, database=database, max_types=max_types, budget=budget,
    )
    analysis.saturate()
    out = Database()
    for pred, classes in analysis.saturated_cloud(analysis.root):
        out.add(Atom(pred, [analysis.constants[c] for c in classes]))
    return out
