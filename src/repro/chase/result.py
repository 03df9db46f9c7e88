"""Chase outcomes: results, applied-step records, and model checks."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..model import (
    Atom,
    Instance,
    TGD,
    instance_homomorphism,
)
from .triggers import Trigger


class ChaseStep:
    """One applied trigger and the facts it produced.

    The produced facts are recorded as log ordinals into the result
    instance and materialized as Atoms lazily on first access — the
    engine's apply loop stays int-only, and runs whose steps are never
    inspected (benchmarks, deciders) never pay for Atom construction.
    """

    __slots__ = ("trigger", "_source", "_ordinals", "_new_facts")

    def __init__(
        self,
        trigger: Trigger,
        source: Instance,
        ordinals: Sequence[int],
    ):
        self.trigger = trigger
        self._source = source
        self._ordinals = tuple(ordinals)
        self._new_facts: Optional[Sequence[Atom]] = None

    @property
    def new_facts(self) -> Sequence[Atom]:
        """The facts this step added, in head order (lazily decoded)."""
        facts = self._new_facts
        if facts is None:
            atom_at = self._source.atom_at
            facts = tuple(atom_at(o) for o in self._ordinals)
            self._new_facts = facts
        return facts

    def __repr__(self) -> str:
        produced = ", ".join(str(f) for f in self.new_facts)
        return f"ChaseStep({self.trigger.rule.label or self.trigger.rule_index}: {produced})"


class ChaseResult:
    """The outcome of a (budgeted) chase run.

    ``terminated`` is True iff the chase reached a fixpoint — no
    applicable trigger remains.  When False the run stopped on a
    resource limit; ``stop_reason`` (one of
    :data:`repro.runtime.budget.STOP_REASONS`) says which, and
    ``resource`` carries the run's resource accounting (elapsed time,
    rounds, memory).  Nothing is
    implied about the true (in)finiteness of the chase, which is
    exactly why the paper's deciders exist.

    Budget-stopped results are always **round-consistent**: engines
    only check budgets between trigger applications, so the instance
    is exactly the database plus the facts of the recorded ``steps`` —
    never a half-applied trigger.
    """

    __slots__ = (
        "instance",
        "terminated",
        "steps",
        "variant",
        "max_steps",
        "stop_reason",
        "resource",
        "_provenance",
        "_provenance_built",
    )

    def __init__(
        self,
        instance: Instance,
        terminated: bool,
        steps: List[ChaseStep],
        variant: str,
        max_steps: int,
        stop_reason: Optional[str] = None,
        resource: Optional[Dict[str, object]] = None,
    ):
        self.instance = instance
        self.terminated = terminated
        self.steps = steps
        self.variant = variant
        self.max_steps = max_steps
        # Legacy constructors (terminated/exhausted only) still get a
        # well-formed reason.
        if stop_reason is None:
            stop_reason = "fixpoint" if terminated else "step_budget"
        self.stop_reason = stop_reason
        self.resource: Dict[str, object] = resource or {}
        # fact -> creating step, built lazily on the first provenance
        # lookup (and extended if steps were appended since).
        self._provenance: Dict[Atom, ChaseStep] = {}
        self._provenance_built = 0

    @property
    def step_count(self) -> int:
        """How many triggers were applied."""
        return len(self.steps)

    @property
    def exhausted(self) -> bool:
        """True iff the run stopped on budget, not on a fixpoint."""
        return not self.terminated

    def provenance(self, fact: Atom) -> Optional[ChaseStep]:
        """The step that created ``fact``, or ``None`` for database
        facts (and facts not in the result).

        Backed by a lazily built fact→step map, so batch provenance
        queries (the E-suite runs one per derived fact) cost O(1) each
        after a single O(steps) build instead of O(steps) per lookup.
        """
        built = self._provenance_built
        steps = self.steps
        if built < len(steps):
            table = self._provenance
            for step in steps[built:]:
                for produced in step.new_facts:
                    table.setdefault(produced, step)
            self._provenance_built = len(steps)
        return self._provenance.get(fact)

    def facts_by_rule(self) -> Dict[str, int]:
        """How many facts each rule contributed (by label or index)."""
        out: Dict[str, int] = {}
        for step in self.steps:
            rule = step.trigger.rule
            key = rule.label or f"rule{step.trigger.rule_index}"
            out[key] = out.get(key, 0) + len(step._ordinals)
        return out

    def __repr__(self) -> str:
        status = (
            "terminated" if self.terminated else f"stopped:{self.stop_reason}"
        )
        return (
            f"ChaseResult({self.variant}, {status}, "
            f"{self.step_count} steps, {len(self.instance)} facts)"
        )

    # -- semantic checks -----------------------------------------------------

    def satisfies(self, rules: Sequence[TGD]) -> bool:
        """True iff the result instance is a model of ``rules``.

        Holds for every terminated chase; used by tests as the paper's
        property (1) of chase results.
        """
        from ..cq.universality import is_model

        return is_model(self.instance, rules)

    def maps_into(self, model: Instance) -> bool:
        """True iff the result embeds homomorphically into ``model`` —
        the universality property (2) of chase results."""
        return instance_homomorphism(self.instance, model) is not None
