"""The critical-chase oracle: budgeted ground truth.

Marnette's theorem reduces all-instance (semi-)oblivious termination
to termination on the critical instance.  Running the actual chase
there with a step budget gives a *semi*-decision procedure:

* the chase reaches a fixpoint  →  Σ ∈ CT (definitive);
* the budget is exhausted       →  unknown (``None``).

The oracle is deliberately independent of the abstract deciders — the
test-suite and several benchmarks cross-validate the two against each
other (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..chase import (
    critical_instance,
    run_chase,
    standard_critical_instance,
)
from ..model import TGD
from .verdict import TerminationVerdict

DEFAULT_ORACLE_STEPS = 5_000


def critical_chase_terminates(
    rules: Sequence[TGD],
    variant: str,
    max_steps: int = DEFAULT_ORACLE_STEPS,
    standard: bool = False,
) -> Optional[bool]:
    """``True`` if the variant chase of the critical instance reaches a
    fixpoint within ``max_steps`` applications, ``None`` if the budget
    runs out first (never ``False``: a budgeted run cannot prove
    non-termination)."""
    rules = list(rules)
    if standard:
        database = standard_critical_instance(rules)
    else:
        database = critical_instance(rules)
    result = run_chase(database, rules, variant, max_steps=max_steps)
    return True if result.terminated else None


def oracle_verdict(
    rules: Sequence[TGD],
    variant: str,
    max_steps: int = DEFAULT_ORACLE_STEPS,
    standard: bool = False,
) -> Optional[TerminationVerdict]:
    """A :class:`TerminationVerdict` when the oracle is conclusive."""
    outcome = critical_chase_terminates(rules, variant, max_steps, standard)
    if outcome is None:
        return None
    return TerminationVerdict(
        True,
        variant,
        "critical_chase_oracle",
        None,
        {"max_steps": max_steps},
    )
