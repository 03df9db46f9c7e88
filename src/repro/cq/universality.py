"""Universal-model checks for chase results.

A terminating chase result is a *universal model* of (D, Σ): a model
that maps homomorphically into every model of D and Σ.  These helpers
package the two defining properties (§1 of the paper) as checkable
predicates used by the test-suite and the data-exchange layer.

``is_model`` runs on the int-native query subsystem: each rule body is
cost-planned and enumerated in id space, matches are deduplicated on
their *frontier* projection before any head work (homomorphisms
agreeing on the frontier share one satisfaction probe), and the head
probe itself is the chase's compiled, index-seeded
:func:`~repro.chase.triggers.head_satisfied` test.  The object-level
:func:`repro.model.homomorphisms` path remains the oracle the tests
compare against.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from ..chase.triggers import Trigger, head_satisfied
from ..model import (
    Instance,
    TGD,
    instance_homomorphism,
)
from ..query import CompiledQuery


def is_model(instance: Instance, rules: Sequence[TGD]) -> bool:
    """Property (1): ``instance`` satisfies every rule."""
    for index, rule in enumerate(rules):
        body = CompiledQuery(rule.body_variables_sorted, rule.body)
        frontier_get = rule._frontier_get
        seen: Set[Tuple] = set()
        for ids in body.matches_ids(instance):
            fkey = ids if frontier_get is None else frontier_get(ids)
            if fkey in seen:
                continue
            seen.add(fkey)
            trigger = Trigger.from_ids(rule, index, ids, instance)
            if not head_satisfied(trigger, instance):
                return False
    return True


def is_model_of(
    instance: Instance, database: Instance, rules: Sequence[TGD]
) -> bool:
    """``instance`` contains ``database`` and satisfies ``rules``."""
    if any(fact not in instance for fact in database):
        return False
    return is_model(instance, rules)


def is_universal_for(
    candidate: Instance, model: Instance
) -> bool:
    """Does ``candidate`` embed homomorphically into ``model``?

    Universality of a chase result means this holds for *every* model;
    tests exercise it against independently constructed models.
    """
    return instance_homomorphism(candidate, model) is not None
