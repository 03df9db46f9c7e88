"""Theorem 4 — the termination decision procedure for guarded TGDs.

The pipeline is: type saturation over the critical instance
(:mod:`~repro.termination.saturation`), the type-transition graph
(:mod:`~repro.termination.transitions`), and pumpable-cycle detection
(:mod:`~repro.termination.pumping`).  ``standard=True`` runs the
analysis over the paper's *standard* critical instance (constants 0
and 1 available through the unary ``zero``/``one`` predicates); the
upper bound holds either way, matching the paper's remark that only
the lower bounds need standardness.
"""

from __future__ import annotations

from typing import Sequence

from ..chase.triggers import ChaseVariant
from ..classes import is_guarded
from ..errors import UnsupportedClassError
from ..model import TGD
from .pumping import find_pumping_witness
from .saturation import DEFAULT_MAX_TYPES, TypeAnalysis
from .transitions import TransitionGraph
from .verdict import TerminationVerdict


def decide_guarded(
    rules: Sequence[TGD],
    variant: str,
    standard: bool = False,
    max_types: int = DEFAULT_MAX_TYPES,
    budget=None,
) -> TerminationVerdict:
    """Decide ``Σ ∈ CT_variant`` for guarded Σ (Theorem 4).

    Raises :class:`~repro.errors.UnsupportedClassError` on non-guarded
    input and :class:`~repro.errors.BudgetExceededError` if the type
    space outgrows ``max_types`` (the procedure is 2EXPTIME-complete)
    or the optional ``budget`` (a
    :class:`repro.runtime.budget.Budget`) trips — the verdict is then
    *unknown*; the error's ``stop_reason`` names the limit.
    """
    rules = list(rules)
    if not is_guarded(rules):
        raise UnsupportedClassError(
            "decide_guarded requires guarded TGDs; use decide_termination "
            "with allow_oracle=True for unrestricted sets"
        )
    if variant not in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS):
        raise UnsupportedClassError(
            f"Theorem 4 covers the oblivious and semi-oblivious chase, "
            f"not {variant!r}"
        )
    analysis = TypeAnalysis(
        rules,
        standard=standard,
        max_types=max_types,
        budget=budget,
    )
    graph = TransitionGraph(analysis)
    stats = graph.stats()
    witness = find_pumping_witness(graph, variant)
    if witness is not None:
        return TerminationVerdict(
            False, variant, "guarded_type_graph", witness, stats
        )
    return TerminationVerdict(True, variant, "guarded_type_graph", None, stats)
