"""Theorem 2 — critical acyclicity for (non-simple) linear TGDs.

For linear TGDs with repeated body variables, a dangerous cycle in the
(extended) dependency graph need not be realizable by an actual chase
derivation — the canonical counterexample, from the paper's discussion,
is ``p(X,X) -> exists Z . p(X,Z)``, which is not weakly acyclic but
whose chase always terminates (the generated atom ``p(*,z)`` can never
re-trigger the rule, whose body demands equal arguments).

The paper refines rich/weak acyclicity into *critical* rich/weak
acyclicity so that, for linear Σ::

    Σ ∈ CT_o  ⇔  Σ ∈ LCriticalRA        Σ ∈ CT_so ⇔  Σ ∈ LCriticalWA

This module exposes the two classes as deciders.  They are computed by
the bag-type machinery of Theorem 4 specialised to linear rules — which
is exactly the semantics the critical-* conditions characterize: the
abstract chase of the critical instance, with equality patterns among
positions tracked precisely (the refinement plain WA/RA lacks).
"""

from __future__ import annotations

from typing import Sequence

from ..chase.triggers import ChaseVariant
from ..classes import is_linear
from ..errors import UnsupportedClassError
from ..model import TGD
from .guarded import DEFAULT_MAX_TYPES, decide_guarded
from .verdict import TerminationVerdict


def decide_linear(
    rules: Sequence[TGD],
    variant: str,
    max_types: int = DEFAULT_MAX_TYPES,
    budget=None,
) -> TerminationVerdict:
    """Decide ``Σ ∈ CT_variant`` for linear Σ (Theorem 2).

    ``budget`` (a :class:`repro.runtime.budget.Budget`) governs the
    type saturation exactly as in
    :func:`~repro.termination.guarded.decide_guarded`."""
    rules = list(rules)
    if not is_linear(rules):
        raise UnsupportedClassError(
            "decide_linear requires linear TGDs (single-atom bodies)"
        )
    verdict = decide_guarded(
        rules, variant, max_types=max_types, budget=budget
    )
    method = (
        "critical_rich_acyclicity"
        if variant == ChaseVariant.OBLIVIOUS
        else "critical_weak_acyclicity"
    )
    return TerminationVerdict(
        verdict.terminating, variant, method, verdict.witness, verdict.stats
    )


def is_critically_richly_acyclic(
    rules: Sequence[TGD], max_types: int = DEFAULT_MAX_TYPES
) -> bool:
    """Membership in LCriticalRA — equivalently CT_o ∩ L (Theorem 2)."""
    return decide_linear(rules, ChaseVariant.OBLIVIOUS, max_types).terminating


def is_critically_weakly_acyclic(
    rules: Sequence[TGD], max_types: int = DEFAULT_MAX_TYPES
) -> bool:
    """Membership in LCriticalWA — equivalently CT_so ∩ L (Theorem 2)."""
    return decide_linear(
        rules, ChaseVariant.SEMI_OBLIVIOUS, max_types
    ).terminating
