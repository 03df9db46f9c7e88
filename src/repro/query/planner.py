"""Cost-based join ordering from the columnar core's statistics.

PR 1's ``order_atoms`` ordered conjunctions by a fixed syntactic
heuristic: connected atoms first, then smallest relation, then fewest
new variables.  That ignores everything the interned columnar
:class:`~repro.model.instances.Instance` already knows for free:

* per-predicate row counts (``rows_of``);
* per-``(pred_id, position, term_id)`` posting-list lengths for every
  *constant* in the conjunction (``probe_rows``); and
* per-``(pred_id, position)`` distinct-value counts (``distinct_at``,
  maintained incrementally by ``add_row``), which bound the average
  posting-list length a *bound variable* will probe with.

:func:`order_for` is the cost order: greedy smallest-estimated-
extension ordering — at each step pick the atom whose estimated number
of matching rows *per intermediate tuple* (under the variables bound
so far) is smallest.  The estimate is join-dependent: row count times
the product of per-position selectivities (see
:func:`estimate_extension`), so an atom constrained at several
positions ranks below one with a single good index even when that
index is the best *individual* candidate list.  Ties break to the
syntactic order's criteria and finally to body position, so the
ordering is deterministic.

Each join has one fixed order.  CQ evaluation, universality checks,
the restricted chase's head probes and saturation/entailment pattern
joins use the cost order: their results are sets or existence tests,
so the order changes only speed.  Chase trigger discovery uses the
syntactic :func:`~repro.model.joinplan.order_atoms` instead, because
discovery order numbers the nulls and is therefore part of the output
(see ``rule_exec`` in :mod:`repro.chase.triggers`).

Orders are cached per instance in a fact-count-bucketed cache (see
:func:`order_for`): statistics drift as a chase grows, so a cached
order is reused only while the instance stays within the same power-of-
two fact-count bucket — repeated evaluation over a growing instance
replans O(log growth) times, not per call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..model.atoms import Atom
from ..model.instances import Instance
from ..model.joinplan import _RESOLVE_CACHE_CAP
from ..model.terms import Variable


def estimate_extension(
    instance: Instance,
    atom: Atom,
    bound: FrozenSet[Variable],
) -> float:
    """Estimated rows of ``atom``'s relation matching one intermediate
    tuple that binds ``bound``.

    Join-dependent model: the relation's row count scaled by the
    *product* of per-position selectivities under the usual attribute-
    independence assumption — ``posting/rows`` for a constant position
    (the exact fraction of rows carrying that value) and
    ``1/distinct`` for a bound-variable position (the average fraction
    matching one given value; repeated variables *within* the atom
    constrain their later occurrences the same way).  An atom
    restricted at several positions therefore estimates lower than any
    single position suggests — which is what a multiway join actually
    delivers, and what the earlier single-best-index model (the min of
    those candidate lists) could not see.  For an atom restricted at
    one position the product collapses to exactly that old estimate.
    Unknown predicates and absent constants estimate 0 (the join is
    empty).
    """
    pid = instance.pred_id_get(atom.predicate)
    if pid is None:
        return 0.0
    rows = len(instance.rows_of(pid))
    if rows == 0:
        return 0.0
    estimate = float(rows)
    local: Set[Variable] = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term in bound or term in local:
                distinct = instance.distinct_at(pid, position)
                if distinct:
                    estimate /= distinct
            local.add(term)
        else:
            tid = instance.term_id_get(term)
            if tid is None:
                return 0.0
            posting = len(instance.probe_rows(pid, position, tid))
            if posting == 0:
                return 0.0
            estimate *= posting / rows
    return estimate


def order_atoms_cost(
    atoms: Sequence[Atom],
    instance: Instance,
    bound: FrozenSet[Variable] = frozenset(),
) -> Tuple[Atom, ...]:
    """Greedy cardinality-driven join order.

    At each step the atom with the smallest estimated extension count
    under the variables bound so far wins; ties fall back to the old
    heuristic's criteria (connectedness, relation size, fewest new
    variables) and finally to body position, keeping the order
    deterministic for identical statistics.
    """
    remaining: List[Tuple[int, Atom, FrozenSet[Variable], int]] = [
        (
            index,
            atom,
            atom.variables(),
            instance.count_with_predicate(atom.predicate),
        )
        for index, atom in enumerate(atoms)
    ]
    ordered: List[Atom] = []
    seen: Set[Variable] = set(bound)
    while remaining:
        frozen_seen = frozenset(seen)

        def cost(entry) -> Tuple[float, bool, int, int, int]:
            index, atom, atom_vars, fan_out = entry
            disconnected = bool(atom_vars) and not (atom_vars & frozen_seen)
            return (
                estimate_extension(instance, atom, frozen_seen),
                disconnected,
                fan_out,
                len(atom_vars - frozen_seen),
                index,
            )

        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best[1])
        seen |= best[2]
    return tuple(ordered)


def order_for(
    atoms: Sequence[Atom],
    instance: Instance,
    bound: FrozenSet[Variable] = frozenset(),
) -> Tuple[Atom, ...]:
    """The cost order of ``atoms`` for ``instance``
    (:func:`order_atoms_cost`), cached.

    Orders are cached per instance, keyed on the conjunction, the
    bound set, and the instance's power-of-two *fact-count bucket* —
    statistics shift as instances grow, so a cached order expires when
    the fact count crosses a bucket boundary and is replanned from the
    fresh statistics.
    """
    # Shares the instance's plan cache and its cap/clear discipline
    # (repro.model.joinplan): stale buckets linger only until a
    # cap-triggered clear, at most O(log growth) buckets exist per
    # conjunction, and an all-ad-hoc-query workload still cannot grow
    # the cache without bound.
    cache: Dict = instance._plans
    key = ("order", tuple(atoms), bound, len(instance).bit_length())
    ordered = cache.get(key)
    if ordered is None:
        ordered = order_atoms_cost(atoms, instance, bound)
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = ordered
    return ordered
