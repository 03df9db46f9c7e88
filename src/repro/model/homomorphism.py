"""Homomorphisms: from conjunctions of atoms into instances, and
between instances.

Two flavours are needed by the library:

* :func:`homomorphisms` — all assignments of the variables of a
  conjunction ``atoms`` to terms of an instance such that every atom
  maps to a fact.  Constants map to themselves.  This drives trigger
  computation, CQ evaluation, and the restricted chase's applicability
  test.
* :func:`instance_homomorphism` — a homomorphism between instances
  that is the identity on constants and maps nulls to arbitrary terms;
  this is the universality test of chase results (§1 of the paper).

The implementation is a deterministic indexed join: conjunctions are
put in the syntactic most-constrained-first order
(:func:`~repro.model.joinplan.order_atoms`), resolved to the
instance's cached int-level :class:`~repro.model.joinplan.PlanExec`,
and executed iteratively with term-level index probes supplied by
:class:`~repro.model.instances.Instance`.  The pre-index backtracking
matcher is retained as :func:`naive_homomorphisms` — it enumerates the
same assignments in the same order and serves as the reference
implementation for the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from .atoms import Atom
from .instances import Instance
from .joinplan import order_atoms, resolve_exec
from .terms import Null, Term, Variable


Assignment = Dict[Variable, Term]


def match_atom(
    pattern: Atom, fact: Atom, assignment: Assignment
) -> Optional[Assignment]:
    """Extend ``assignment`` so that ``pattern`` maps onto ``fact``.

    Returns the extended assignment, or ``None`` if the match fails.
    ``assignment`` itself is never mutated.
    """
    if pattern.predicate != fact.predicate:
        return None
    out = dict(assignment)
    for pat_term, fact_term in zip(pattern.terms, fact.terms):
        if isinstance(pat_term, Variable):
            bound = out.get(pat_term)
            if bound is None:
                out[pat_term] = fact_term
            elif bound != fact_term:
                return None
        elif pat_term != fact_term:
            # Constants (and nulls embedded in patterns) match themselves.
            return None
    return out


def homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Optional[Assignment] = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism from ``atoms`` into ``instance``.

    Each yielded assignment maps every variable of ``atoms`` to a term
    of the instance and extends ``partial`` if given.  Assignments are
    yielded in a deterministic order (insertion order of the matched
    facts under a most-constrained-first join order).
    """
    partial = partial or {}
    if not atoms:
        yield dict(partial)
        return
    exec_ = resolve_exec(
        instance, order_atoms(atoms, instance, frozenset(partial))
    )
    # Encode the partial assignment into slot ids; its variables that
    # the atoms do not mention pass through to every result unchanged.
    assign = exec_.fresh_assign()
    extra = []
    slot_of = exec_.slot_of
    for var, term in partial.items():
        slot = slot_of.get(var)
        if slot is None:
            extra.append((var, term))
        else:
            assign[slot] = instance.term_id(term)
    out = exec_.out
    obj = instance.symbols.obj
    for match in exec_.run(instance, assign):
        result: Assignment = dict(extra)
        for var, slot in out:
            result[var] = obj(match[slot])
        yield result


def naive_homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Optional[Assignment] = None,
) -> Iterator[Assignment]:
    """The seed engine's recursive backtracking matcher, retained as the
    reference implementation.

    Scans every fact of each atom's relation and copies the assignment
    per matched atom — no term-level indexes, no in-place binding.  It
    uses the same join order as :func:`homomorphisms` and must yield
    exactly the same assignments in the same order; the property tests
    hold it to that.
    """
    if not atoms:
        yield dict(partial or {})
        return
    bound = frozenset(partial) if partial else frozenset()
    ordered = order_atoms(atoms, instance, bound)

    def extend(idx: int, assignment: Assignment) -> Iterator[Assignment]:
        if idx == len(ordered):
            yield assignment
            return
        pattern = ordered[idx]
        for fact in instance.facts_with_predicate(pattern.predicate):
            nxt = match_atom(pattern, fact, assignment)
            if nxt is not None:
                yield from extend(idx + 1, nxt)

    yield from extend(0, dict(partial or {}))


def has_homomorphism(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Optional[Assignment] = None,
) -> bool:
    """True iff at least one homomorphism exists."""
    return next(homomorphisms(atoms, instance, partial), None) is not None


def apply_assignment(atoms: Sequence[Atom], assignment: Assignment) -> List[Atom]:
    """Instantiate ``atoms`` under ``assignment`` (variables must be covered
    for the result to be ground; uncovered variables survive)."""
    mapping: Dict[Term, Term] = dict(assignment)
    return [a.substitute(mapping) for a in atoms]


def instance_homomorphism(
    source: Instance, target: Instance
) -> Optional[Dict[Term, Term]]:
    """A homomorphism ``source -> target``: identity on constants, nulls
    map to arbitrary target terms.  Returns the mapping or ``None``.

    This is the universality check: the result of a terminating chase
    on (D, Σ) maps homomorphically into every model of D and Σ.
    """
    # Convert the source's nulls to variables and reuse the CQ matcher.
    null_vars: Dict[Null, Variable] = {}
    patterns: List[Atom] = []
    for fact in source:
        terms: List[Term] = []
        for t in fact.terms:
            if isinstance(t, Null):
                var = null_vars.get(t)
                if var is None:
                    var = Variable(f"__null_{t.index}")
                    null_vars[t] = var
                terms.append(var)
            else:
                terms.append(t)
        patterns.append(Atom(fact.predicate, terms))
    assignment = next(homomorphisms(patterns, target), None)
    if assignment is None:
        return None
    mapping: Dict[Term, Term] = {}
    for null, var in null_vars.items():
        mapping[null] = assignment[var]
    for term in source.active_domain():
        if not isinstance(term, Null):
            mapping[term] = term
    return mapping


def is_homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """True iff homomorphisms exist in both directions."""
    return (
        instance_homomorphism(left, right) is not None
        and instance_homomorphism(right, left) is not None
    )
