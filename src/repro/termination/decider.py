"""The front-door termination decider.

:func:`decide_termination` dispatches to the narrowest applicable
procedure:

* full programs — trivially terminating;
* simple linear — Theorem 1 (rich/weak acyclicity, NL);
* linear — Theorem 2 (critical acyclicity, PSPACE);
* guarded — Theorem 4 (type graph, 2EXPTIME);
* anything else — undecidable in general; with ``allow_oracle=True``
  the budgeted critical-chase oracle may still prove termination.
"""

from __future__ import annotations

from typing import Sequence

from ..chase.triggers import ChaseVariant
from ..classes import is_full, narrowest_class
from ..errors import UnsupportedClassError
from ..model import TGD, program_constants
from .guarded import decide_guarded
from .linear import decide_linear
from .oracle import DEFAULT_ORACLE_STEPS, critical_chase_terminates
from .saturation import DEFAULT_MAX_TYPES
from .sl import decide_simple_linear
from .verdict import TerminationVerdict


def decide_termination(
    rules: Sequence[TGD],
    variant: str = ChaseVariant.SEMI_OBLIVIOUS,
    standard: bool = False,
    method: str = "auto",
    max_types: int = DEFAULT_MAX_TYPES,
    allow_oracle: bool = False,
    oracle_steps: int = DEFAULT_ORACLE_STEPS,
    budget=None,
) -> TerminationVerdict:
    """Decide all-instance ``variant``-chase termination for ``rules``.

    Parameters
    ----------
    variant:
        ``"oblivious"`` or ``"semi_oblivious"``.
    standard:
        Analyse over the paper's *standard* databases (adds the 0/1
        constants); only meaningful for the guarded procedure.
    method:
        Force a procedure: ``"auto"``, ``"simple_linear"``,
        ``"linear"``, ``"guarded"``, or ``"oracle"``.
    allow_oracle:
        For non-guarded Σ, permit the (incomplete) budgeted oracle
        instead of raising :class:`UnsupportedClassError`.
    budget:
        Optional :class:`repro.runtime.budget.Budget` governing the
        type saturation behind the linear (Theorem 2) and guarded
        (Theorem 4) procedures (deadline, round cap, memory ceiling,
        cancellation); a tripped budget raises
        :class:`~repro.errors.BudgetExceededError` with the stop
        reason — the verdict is then unknown.  The simple-linear
        (Theorem 1) graph procedure finishes far below any sensible
        budget and ignores the knob.
    """
    rules = list(rules)
    if variant not in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS):
        raise UnsupportedClassError(
            f"all-instance termination is studied for the oblivious and "
            f"semi-oblivious chase; got {variant!r}"
        )
    if method == "simple_linear":
        return decide_simple_linear(rules, variant)
    if method == "linear":
        return decide_linear(
            rules, variant, max_types=max_types, budget=budget
        )
    if method == "guarded":
        return decide_guarded(
            rules, variant, standard=standard, max_types=max_types,
            budget=budget,
        )
    if method == "oracle":
        return _oracle_or_raise(rules, variant, standard, oracle_steps)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    if not rules or is_full(rules):
        # No existential variables: every chase variant terminates on
        # every database (only finitely many facts over the active
        # domain exist).
        return TerminationVerdict(True, variant, "full_program", None, {})
    cls = narrowest_class(rules)
    if cls == "simple_linear" and program_constants(rules):
        # The Theorem 1 characterizations are for constant-free TGDs:
        # weak/rich acyclicity cannot see that a rule constant blocks a
        # dangerous cycle (e.g. p(a, X) -> ∃Z q(X, Z), q(X, Z) ->
        # p(X, Z) terminates although its dependency graph is cyclic).
        # Constant-bearing programs go to the exact critical decider.
        cls = "linear"
    if cls == "simple_linear":
        return decide_simple_linear(rules, variant)
    if cls == "linear":
        return decide_linear(
            rules, variant, max_types=max_types, budget=budget
        )
    if cls == "guarded":
        return decide_guarded(
            rules, variant, standard=standard, max_types=max_types,
            budget=budget,
        )
    if allow_oracle:
        return _oracle_or_raise(rules, variant, standard, oracle_steps)
    raise UnsupportedClassError(
        "all-instance chase termination is undecidable for unrestricted "
        "TGDs (Gogacz & Marcinkowski); the paper's procedures require "
        "guardedness — pass allow_oracle=True for a best-effort check"
    )


def _oracle_or_raise(
    rules: Sequence[TGD], variant: str, standard: bool, oracle_steps: int
) -> TerminationVerdict:
    outcome = critical_chase_terminates(
        rules, variant, max_steps=oracle_steps, standard=standard
    )
    if outcome is None:
        raise UnsupportedClassError(
            f"the critical-chase oracle was inconclusive after "
            f"{oracle_steps} steps; no complete procedure applies to "
            "this rule set"
        )
    return TerminationVerdict(
        True,
        variant,
        "critical_chase_oracle",
        None,
        {"oracle_steps": oracle_steps},
    )
