"""One-call termination reports: the full picture for a rule set.

Bundles the class recognizers, the sufficient-condition zoo, and both
exact deciders into a single structured report — the programmatic
equivalent of the E11 ablation row for one program, used by the CLI's
``check --full``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..chase.triggers import ChaseVariant
from ..classes import classify, narrowest_class
from ..errors import UnsupportedClassError
from ..graphs import (
    is_jointly_acyclic,
    is_richly_acyclic,
    is_weakly_acyclic,
)
from ..model import TGD
from ..runtime.budget import Budget
from .decider import decide_termination
from .mfa import is_mfa
from .verdict import TerminationVerdict


class TerminationReport:
    """Everything the library can say about one rule set."""

    __slots__ = (
        "rules",
        "classes",
        "narrowest",
        "conditions",
        "oblivious",
        "semi_oblivious",
    )

    def __init__(
        self,
        rules: Sequence[TGD],
        classes: Dict[str, bool],
        narrowest: str,
        conditions: Dict[str, Optional[bool]],
        oblivious: Optional[TerminationVerdict],
        semi_oblivious: Optional[TerminationVerdict],
    ):
        self.rules = list(rules)
        self.classes = classes
        self.narrowest = narrowest
        self.conditions = conditions
        self.oblivious = oblivious
        self.semi_oblivious = semi_oblivious

    def render(self) -> str:
        """A multi-line human-readable report."""
        lines = [f"rules: {len(self.rules)}",
                 f"narrowest class: {self.narrowest}"]
        lines.append("sufficient conditions:")
        for name in ("rich_acyclicity", "weak_acyclicity",
                     "joint_acyclicity", "mfa"):
            value = self.conditions.get(name)
            rendered = "n/a" if value is None else ("yes" if value else "no")
            lines.append(f"  {name}: {rendered}")
        for label, verdict in (
            ("oblivious", self.oblivious),
            ("semi_oblivious", self.semi_oblivious),
        ):
            if verdict is None:
                lines.append(f"{label}: undecided (rules not guarded)")
            else:
                outcome = (
                    "terminates on every database"
                    if verdict.terminating
                    else "diverges on some database"
                )
                lines.append(f"{label}: {outcome} [{verdict.method}]")
        return "\n".join(lines)


def termination_report(
    rules: Sequence[TGD],
    mfa_budget: int = 20_000,
    standard: bool = False,
    allow_oracle: bool = False,
    budget: Optional[Budget] = None,
) -> TerminationReport:
    """Build a :class:`TerminationReport` for ``rules``.

    The exact verdicts are ``None`` when the rules fall outside the
    guarded classes (undecidable territory) and no procedure applies;
    the zoo conditions are always computed (MFA is ``None`` when the
    Skolem chase exceeds ``mfa_budget`` facts).  ``standard`` and
    ``allow_oracle`` are passed to both
    :func:`~repro.termination.decider.decide_termination` calls.
    ``budget`` governs the whole report — the MFA check and both
    verdicts — and a tripped budget raises
    :class:`~repro.errors.BudgetExceededError`.
    """
    rules = list(rules)
    conditions: Dict[str, Optional[bool]] = {
        "rich_acyclicity": is_richly_acyclic(rules),
        "weak_acyclicity": is_weakly_acyclic(rules),
        "joint_acyclicity": is_jointly_acyclic(rules),
    }
    try:
        conditions["mfa"] = is_mfa(rules, max_steps=mfa_budget, budget=budget)
    except Exception:
        if budget is not None and budget.stop_reason is not None:
            raise
        conditions["mfa"] = None
    verdicts = {}
    for variant in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS):
        try:
            verdicts[variant] = decide_termination(
                rules, variant=variant, standard=standard,
                allow_oracle=allow_oracle, budget=budget,
            )
        except UnsupportedClassError:
            verdicts[variant] = None
    return TerminationReport(
        rules,
        classify(rules),
        narrowest_class(rules),
        conditions,
        verdicts[ChaseVariant.OBLIVIOUS],
        verdicts[ChaseVariant.SEMI_OBLIVIOUS],
    )
