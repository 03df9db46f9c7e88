"""Triggers and their identification policies.

A *trigger* for a set Σ of TGDs on an instance ``I`` is a pair
``(σ, h)`` where ``σ = φ → ψ ∈ Σ`` and ``h`` is a homomorphism mapping
``φ`` into ``I`` (§2 of the paper).  The three chase variants differ in
when two triggers are considered *the same* (and hence fired once):

* **oblivious** — triggers are identified by the full homomorphism on
  the body variables;
* **semi-oblivious** — by the restriction of the homomorphism to the
  frontier (the universally quantified variables occurring in the
  head); homomorphisms agreeing there are indistinguishable;
* **restricted** — as oblivious, but a trigger is *skipped* when its
  head is already satisfied by some extension of the frontier image.

Triggers come in two internal representations sharing one class:

* the **object form** — a ``Variable → Term`` dict, produced by the
  public enumeration APIs (:func:`triggers_for_rule`); and
* the **interned form** — a tuple of term *ids* aligned with the
  rule's name-sorted body variables, produced by the engines' int-level
  discovery (:mod:`repro.chase.delta`).  Keys, head-satisfaction
  probes, and trigger application then run on plain integers; the
  ``assignment``/``frontier_image`` accessors decode lazily, so Term
  objects only materialize at API boundaries.

The two forms never mix inside one engine run, so their (structurally
distinct) key encodings can never collide in a fired-key set.
"""

from __future__ import annotations

from operator import itemgetter as _itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..model import (
    Assignment,
    Atom,
    Instance,
    NullFactory,
    TGD,
    Term,
    Variable,
    homomorphisms,
)
from ..model.joinplan import PlanExec, ResolvedStep, order_atoms, resolve_exec
from ..query.planner import order_for


def _empty_emit(assign):
    return ()


def _single_emit(slot):
    def emit(assign):
        return (assign[slot],)

    return emit


class ChaseVariant:
    """The chase variants studied by the paper."""

    OBLIVIOUS = "oblivious"
    SEMI_OBLIVIOUS = "semi_oblivious"
    RESTRICTED = "restricted"

    ALL = (OBLIVIOUS, SEMI_OBLIVIOUS, RESTRICTED)


TriggerKey = Tuple[int, Tuple]


class Trigger:
    """One trigger ``(σ, h)``; ``rule_index`` identifies σ within Σ."""

    __slots__ = ("rule", "rule_index", "_assignment", "_ids", "_source")

    def __init__(self, rule: TGD, rule_index: int, assignment: Assignment):
        self.rule = rule
        self.rule_index = rule_index
        self._assignment: Optional[Assignment] = assignment
        self._ids: Optional[Tuple[int, ...]] = None
        self._source: Optional[Instance] = None

    @classmethod
    def from_ids(
        cls,
        rule: TGD,
        rule_index: int,
        ids: Tuple[int, ...],
        source: Instance,
    ) -> "Trigger":
        """An interned-form trigger: ``ids[i]`` is the image of
        ``rule.body_variables_sorted[i]`` in ``source``'s id space."""
        trigger = cls.__new__(cls)
        trigger.rule = rule
        trigger.rule_index = rule_index
        trigger._assignment = None
        trigger._ids = ids
        trigger._source = source
        return trigger

    @property
    def assignment(self) -> Assignment:
        """The homomorphism as a ``Variable → Term`` dict (decoded
        lazily and cached for interned-form triggers)."""
        assignment = self._assignment
        if assignment is None:
            obj = self._source.symbols.obj
            assignment = {
                var: obj(tid)
                for var, tid in zip(
                    self.rule.body_variables_sorted, self._ids
                )
            }
            self._assignment = assignment
        return assignment

    def ids(self, instance: Instance) -> Tuple[int, ...]:
        """The interned form in ``instance``'s id space (encoding an
        object-form trigger on demand)."""
        ids = self._ids
        if ids is not None:
            return ids
        assignment = self._assignment
        term_id = instance.term_id
        return tuple(
            term_id(assignment[var])
            for var in self.rule.body_variables_sorted
        )

    def key(self, variant: str) -> TriggerKey:
        """The identification key under ``variant``.

        The restricted chase identifies triggers the oblivious way; its
        extra head-satisfaction check happens at application time.
        Interned-form triggers key on plain int tuples (the rule's
        precomputed sorted variable order fixes the alignment); object
        -form triggers keep the name/term encoding.  The two encodings
        are structurally disjoint and never meet in one fired-key set.
        """
        ids = self._ids
        if ids is not None:
            if variant == ChaseVariant.SEMI_OBLIVIOUS:
                get = self.rule._frontier_get
                return (
                    self.rule_index, ids if get is None else get(ids)
                )
            return (self.rule_index, ids)
        if variant == ChaseVariant.SEMI_OBLIVIOUS:
            relevant = self.rule.frontier_sorted
        else:
            relevant = self.rule.body_variables_sorted
        assignment = self._assignment
        items = tuple((var.name, assignment[var]) for var in relevant)
        return (self.rule_index, items)

    def frontier_image(self) -> Tuple[Tuple[str, Term], ...]:
        """The frontier restriction of the homomorphism (name-sorted)."""
        ids = self._ids
        if ids is not None:
            obj = self._source.symbols.obj
            return tuple(
                (var.name, obj(ids[i]))
                for var, i in zip(
                    self.rule.frontier_sorted,
                    self.rule.frontier_body_indices,
                )
            )
        assignment = self._assignment
        return tuple(
            (v.name, assignment[v]) for v in self.rule.frontier_sorted
        )

    def __repr__(self) -> str:
        image = ", ".join(
            f"{v.name}->{t}" for v, t in sorted(
                self.assignment.items(), key=lambda kv: kv[0].name
            )
        )
        return f"Trigger({self.rule}, {{{image}}})"


def triggers_for_rule(
    rule: TGD, rule_index: int, instance: Instance
) -> Iterator[Trigger]:
    """All triggers for one rule on ``instance`` (deterministic order)."""
    for assignment in homomorphisms(rule.body, instance):
        yield Trigger(rule, rule_index, assignment)


def all_triggers(
    rules: Sequence[TGD], instance: Instance
) -> Iterator[Trigger]:
    """All triggers for Σ on ``instance``, rule-major order."""
    for idx, rule in enumerate(rules):
        yield from triggers_for_rule(rule, idx, instance)


# -- head satisfaction -----------------------------------------------------


class _HeadExec:
    """A rule's head resolved for one instance and one join order:
    the exec plus the seeding recipe from a trigger's id tuple."""

    __slots__ = ("exec_", "seed")

    def __init__(self, instance: Instance, rule: TGD,
                 ordered_head: Tuple[Atom, ...]):
        self.exec_ = resolve_exec(instance, ordered_head)
        slot_of = self.exec_.slot_of
        seed: List[Tuple[int, int]] = []
        for var, body_idx in zip(
            rule.frontier_sorted, rule.frontier_body_indices
        ):
            slot = slot_of.get(var)
            # A frontier variable absent from the head cannot constrain
            # the match; skip it (the object engine carried it inertly).
            if slot is not None:
                seed.append((slot, body_idx))
        self.seed = tuple(seed)


def _head_exec(instance: Instance, rule: TGD) -> _HeadExec:
    """The (cached) head exec for ``rule``.

    Head satisfaction is a pure existence test, so its join order
    affects only speed — never results or enumeration order.  The head
    therefore runs in the cost order
    (:func:`repro.query.planner.order_for`), recomputed lazily
    whenever the instance has doubled since the exec was built
    (O(log growth) reorders), instead of per probe.
    """
    cache = instance._plans
    entry = cache.get(rule)
    size = len(instance)
    if entry is not None and size <= 2 * entry[0]:
        return entry[1]
    ordered = order_for(rule.head, instance, rule.frontier)
    key = ("head", rule, ordered)
    exec_ = cache.get(key)
    if exec_ is None:
        exec_ = _HeadExec(instance, rule, ordered)
        cache[key] = exec_
    cache[rule] = (size if size else 1, exec_)
    return exec_


def head_satisfied(trigger: Trigger, instance: Instance) -> bool:
    """The restricted chase's applicability test: is there an extension
    of the trigger's frontier image mapping the head into ``instance``?

    Runs the rule's resolved head exec seeded with the frontier image
    ids, so the probe starts from the term-level int indexes rather
    than a scan.
    """
    rule = trigger.rule
    head = _head_exec(instance, rule)
    exec_ = head.exec_
    assign = exec_.fresh_assign()
    ids = trigger.ids(instance)
    for slot, body_idx in head.seed:
        assign[slot] = ids[body_idx]
    return exec_.first(instance, assign)


# -- application -----------------------------------------------------------


def _make_row_builder(ops: Tuple[Tuple[int, int], ...]):
    """Compile one head atom's ops into ``builder(ids, exist_ids) ->
    row``.  All-frontier heads (the common full-TGD case) collapse to a
    single ``itemgetter`` over the trigger's id tuple."""
    if not ops:
        def build_empty(ids, exist_ids):
            return ()

        return build_empty
    if all(kind == 1 for kind, _ in ops):
        if len(ops) == 1:
            index = ops[0][1]

            def build_single(ids, exist_ids):
                return (ids[index],)

            return build_single
        get = _itemgetter(*[value for _, value in ops])

        def build_projected(ids, exist_ids):
            return get(ids)

        return build_projected

    def build_general(ids, exist_ids):
        values: List[int] = []
        for kind, value in ops:
            if kind == 0:
                values.append(value)
            elif kind == 1:
                values.append(ids[value])
            else:
                values.append(exist_ids[value])
        return tuple(values)

    return build_general


class _HeadTemplate:
    """A rule's head compiled for int-level application.

    Each head atom becomes ``(pred_id, ops, builder)`` where an op is
    ``(0, term_id)`` for a constant, ``(1, i)`` for the i-th sorted
    body variable, or ``(2, j)`` for the j-th sorted existential
    variable, and ``builder`` is the compiled row constructor;
    ``origins`` are the precomputed null-origin labels.
    """

    __slots__ = ("atoms", "origins")

    def __init__(self, instance: Instance, rule: TGD, rule_index: int):
        body_index = {
            var: i for i, var in enumerate(rule.body_variables_sorted)
        }
        exist_index = {
            var: j for j, var in enumerate(rule.existentials_sorted)
        }
        atoms: List[Tuple[int, Tuple[Tuple[int, int], ...], object]] = []
        for atom in rule.head:
            pid = instance.pred_id(atom.predicate)
            ops: List[Tuple[int, int]] = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    j = exist_index.get(term)
                    if j is None:
                        ops.append((1, body_index[term]))
                    else:
                        ops.append((2, j))
                else:
                    ops.append((0, instance.term_id(term)))
            key = tuple(ops)
            atoms.append((pid, key, _make_row_builder(key)))
        self.atoms = tuple(atoms)
        label = rule.label or f"rule{rule_index}"
        self.origins = tuple(
            f"{label}:{var.name}" for var in rule.existentials_sorted
        )


def _head_template(
    instance: Instance, rule: TGD, rule_index: int
) -> _HeadTemplate:
    cache = instance._templates
    template = cache.get(rule)
    if template is None:
        template = _HeadTemplate(instance, rule, rule_index)
        cache[rule] = template
    return template


def apply_trigger_ids(
    trigger: Trigger,
    instance: Instance,
    null_factory: NullFactory,
) -> List[int]:
    """Fire ``trigger`` on ``instance`` at the int level: one fresh
    null per existential variable (interned on creation), head rows
    built straight from the compiled template.

    Returns the ordinals of the facts that were actually new (possibly
    empty for full TGDs whose head already held); the corresponding
    Atoms materialize lazily.
    """
    template = _head_template(instance, trigger.rule, trigger.rule_index)
    ids = trigger.ids(instance)
    term_id = instance.term_id
    exist_ids = [
        term_id(null_factory.fresh(origin=origin))
        for origin in template.origins
    ]
    new_ordinals: List[int] = []
    add_row = instance.add_row
    for pid, _, build in template.atoms:
        ordinal = add_row(pid, build(ids, exist_ids))
        if ordinal is not None:
            new_ordinals.append(ordinal)
    return new_ordinals


def apply_trigger(
    trigger: Trigger,
    instance: Instance,
    null_factory: NullFactory,
) -> List[Atom]:
    """Fire ``trigger`` on ``instance``: extend the homomorphism with a
    fresh null per existential variable and add the head atoms.

    Returns the atoms that were actually new (possibly empty for full
    TGDs whose head already held).
    """
    atom_at = instance.atom_at
    return [
        atom_at(ordinal)
        for ordinal in apply_trigger_ids(trigger, instance, null_factory)
    ]


# -- int-level discovery plumbing (used by repro.chase.delta) --------------


class RuleExec:
    """A ``(rule, pivot)`` pair resolved for one instance and one join
    order of the rest-of-body: the pivot's step and the rest exec share
    one slot space, and ``emit`` reads the sorted body variables' slots
    out of a full match — yielding the trigger's interned id tuple
    directly (compiled to an ``itemgetter`` for the common case)."""

    __slots__ = ("pivot_step", "rest", "nslots", "emit", "emit_slots")

    def __init__(self, instance: Instance, rule: TGD, pivot: int,
                 ordered_rest: Tuple[Atom, ...]):
        env: Dict[Variable, int] = {}
        self.pivot_step = ResolvedStep(instance, rule.body[pivot], env)
        if ordered_rest:
            steps = [
                ResolvedStep(instance, atom, env) for atom in ordered_rest
            ]
            self.rest: Optional[PlanExec] = PlanExec(steps, env)
        else:
            self.rest = None
        self.nslots = len(env)
        slots = tuple(env[v] for v in rule.body_variables_sorted)
        # The raw slot tuple alongside the compiled getter: the batch
        # kernels project columns by slot number rather than reading a
        # live assignment list.
        self.emit_slots = slots
        if len(slots) == 1:
            self.emit = _single_emit(slots[0])
        elif slots:
            self.emit = _itemgetter(*slots)
        else:
            self.emit = _empty_emit


def rule_exec(instance: Instance, rule: TGD, pivot: int) -> RuleExec:
    """The (cached) :class:`RuleExec` for ``(rule, pivot)``.

    The rest of the body runs in the syntactic order
    (:func:`~repro.model.joinplan.order_atoms`), never the cost order:
    discovery order numbers the nulls, so it is part of the chase's
    output, and this order is the canonical fair sequence that
    ``run_chase``, resume, ``ChaseSession`` and the golden records
    share.
    """
    pivot_atom = rule.body[pivot]
    rest = [a for i, a in enumerate(rule.body) if i != pivot]
    if rest:
        # The pivot's bindings seed the rest-of-body join: the exec
        # treats them as bound and probes the term-level indexes with
        # them.  One exec serves every candidate row — the caller
        # materializes all triggers before mutating the instance, so
        # the join order cannot go stale mid-loop.
        ordered = order_atoms(
            rest, instance, frozenset(pivot_atom.variables())
        )
    else:
        ordered = ()
    key = ("rule", rule, pivot, ordered)
    cache = instance._plans
    exec_ = cache.get(key)
    if exec_ is None:
        exec_ = RuleExec(instance, rule, pivot, ordered)
        cache[key] = exec_
    return exec_
