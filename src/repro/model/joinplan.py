"""Compiled join plans: the interned-id evaluation engine for
conjunctions.

Enumerating homomorphisms of a rule body (or CQ body, or head) into an
instance is the hot loop of everything in this library — trigger
discovery, the restricted chase's applicability test, CQ evaluation,
the MFA-style deciders.  PR 1 compiled conjunctions into index-probing
plans over :class:`Atom` objects; this revision pushes the same plans
down onto the columnar fact core (:mod:`repro.model.instances`), so
the innermost loop touches **only small integers**:

* **slot-based assignments** — a compiled plan numbers its variables
  into dense *slots*; the working assignment is a plain list indexed
  by slot, so binding, probing and comparing never call a Python-level
  ``__hash__``/``__eq__`` (the old ``Variable``-keyed dict paid one
  method call per access);
* **per-atom resolution** (:class:`ResolvedStep`) — constant checks
  become ``(position, term_id)`` pairs, repeated variables become
  grouped positions, and the fully-bound case collapses to one row
  membership probe, all against a specific instance's id space;
* **index probing** — at each join level the step picks the smallest
  ``(pred_id, position, term_id)`` index row among the positions whose
  id is already known, falling back to the whole relation — the same
  selection rule, and therefore the same candidate order, as the
  object-level engine it replaces;
* **iterative execution** — a single mutable slot list with an
  explicit unbind trail; candidate iteration is bounded by the row
  count observed when the join level was entered (rows are
  append-only), preserving the copy-on-read snapshot semantics.

Determinism: index rows and relation rows are append-only and kept in
insertion order, the probe-selection rule is unchanged, and interning
never reorders rows — so a compiled plan enumerates exactly the
matches the naive insertion-order scan enumerates, in the same order.
``tests/test_join_equivalence.py`` holds the engine to that against
the retained naive reference implementation, assignment-for-assignment.

Resolution artifacts (steps, execs) are cached **per instance** (in
``Instance._plans``, capped) because constant ids are meaningless
across id spaces.  The object-level
:func:`~repro.model.homomorphism.homomorphisms` runs these execs
directly: it encodes a partial assignment at entry and decodes each
match at yield, so its callers see Variable→Term dicts.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .atoms import Atom
from .instances import Instance
from .terms import Variable

_EMPTY_ROWS: Tuple = ()


# -- the int-level executor ------------------------------------------------


class ResolvedStep:
    """One body atom resolved against an instance's id space.

    ``const_checks`` are ``(position, term_id)`` pairs; ``groups`` are
    ``(slot, first_position, other_positions)`` triples, one per
    distinct variable; ``build`` rebuilds the fully-determined row for
    the all-bound membership fast path as ``(is_const, id_or_slot)``
    entries, one per position.

    Steps are cached per instance, so they bind the instance's index
    dicts directly — probing skips the accessor-method dispatch (the
    dict objects are never replaced, only grown).
    """

    __slots__ = ("pid", "const_checks", "groups", "build",
                 "_index_get", "_rows_get", "_members_get")

    def __init__(self, instance: Instance, atom: Atom,
                 slot_env: Dict[Variable, int]):
        # pred_id first: on a lazily reopened durable store it hydrates
        # the relation, so the dicts bound below are already complete
        # (and, per the FactStore contract, never replaced afterwards).
        self.pid = instance.pred_id(atom.predicate)
        store = instance.store
        self._index_get = store.index.get
        self._rows_get = store.rows_by_pid.get
        self._members_get = store.member_by_pid.get
        const_checks: List[Tuple[int, int]] = []
        positions_of: Dict[Variable, List[int]] = {}
        order: List[Variable] = []
        build: List[Tuple[bool, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term not in positions_of:
                    positions_of[term] = []
                    order.append(term)
                    if term not in slot_env:
                        slot_env[term] = len(slot_env)
                positions_of[term].append(position)
                build.append((False, slot_env[term]))
            else:
                # Constants (and nulls embedded in patterns) match
                # themselves; interning here is deterministic because
                # engines pre-intern all rule symbols serially.
                tid = instance.term_id(term)
                const_checks.append((position, tid))
                build.append((True, tid))
        self.const_checks: Tuple[Tuple[int, int], ...] = tuple(const_checks)
        self.groups: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = tuple(
            (slot_env[var], positions_of[var][0],
             tuple(positions_of[var][1:]))
            for var in order
        )
        self.build: Tuple[Tuple[bool, int], ...] = tuple(build)

    def match(self, row: Tuple[int, ...],
              assign: List[Optional[int]]) -> Optional[List[int]]:
        """Extend ``assign`` in place so this atom maps onto ``row``.

        Returns the slots newly bound (possibly empty) or ``None`` on
        failure, in which case ``assign`` is left untouched.  The same
        logic is inlined in :meth:`PlanExec.run`'s innermost loop.
        """
        for pos, tid in self.const_checks:
            if row[pos] != tid:
                return None
        newly: List[int] = []
        for slot, p0, rest in self.groups:
            value = row[p0]
            bound = assign[slot]
            if bound is None:
                ok = True
                for p in rest:
                    if row[p] != value:
                        ok = False
                        break
                if ok:
                    assign[slot] = value
                    newly.append(slot)
                    continue
            elif bound == value:
                ok = True
                for p in rest:
                    if row[p] != bound:
                        ok = False
                        break
                if ok:
                    continue
            for s in newly:
                assign[s] = None
            return None
        return newly

    def candidates(
        self, instance: Instance, assign: List[Optional[int]]
    ) -> Tuple[Sequence[Tuple[int, ...]], int]:
        """``(rows, limit)`` of candidate rows under ``assign``.

        A step whose slots are all bound determines a single ground
        row, so the search collapses to one O(1) membership probe.
        Otherwise the most selective available index row is returned;
        ``limit`` snapshots its length now (rows are append-only).
        """
        for slot, _, _ in self.groups:
            if assign[slot] is None:
                break
        else:
            row = tuple(
                v if is_const else assign[v]
                for is_const, v in self.build
            )
            member = self._members_get(self.pid)
            if member is not None and row in member:
                return (row,), 1
            return _EMPTY_ROWS, 0
        pid = self.pid
        best = self._rows_get(pid)
        if best is None:
            best = _EMPTY_ROWS
        index_get = self._index_get
        for pos, tid in self.const_checks:
            rows = index_get((pid, pos, tid), _EMPTY_ROWS)
            if len(rows) < len(best):
                best = rows
        for slot, p0, _ in self.groups:
            bound = assign[slot]
            if bound is not None:
                rows = index_get((pid, p0, bound), _EMPTY_ROWS)
                if len(rows) < len(best):
                    best = rows
        return best, len(best)


class PlanExec:
    """A resolved, slot-numbered plan ready to run over int rows."""

    __slots__ = ("steps", "nslots", "slot_of", "out")

    def __init__(self, steps: Sequence[ResolvedStep],
                 slot_env: Dict[Variable, int]):
        self.steps: Tuple[ResolvedStep, ...] = tuple(steps)
        self.nslots = len(slot_env)
        self.slot_of: Dict[Variable, int] = dict(slot_env)
        self.out: Tuple[Tuple[Variable, int], ...] = tuple(
            slot_env.items()
        )

    def fresh_assign(self) -> List[Optional[int]]:
        """A cleared working assignment."""
        return [None] * self.nslots

    def run(
        self, instance: Instance, assign: List[Optional[int]]
    ) -> Iterator[List[Optional[int]]]:
        """Yield the live ``assign`` list once per full match.

        ``assign`` is the working scratch (pre-seed bound slots before
        calling); it is mutated during enumeration and restored to its
        input state when the generator is exhausted.  Consumers must
        read out the slots they need before advancing.
        """
        steps = self.steps
        n = len(steps)
        if n == 0:
            yield assign
            return
        if n == 1:
            # Single-step fast path (most rest-of-body joins after a
            # pivot): no depth stacks, one scan.
            step = steps[0]
            const_checks = step.const_checks
            groups = step.groups
            rows, lim = step.candidates(instance, assign)
            i = 0
            while i < lim:
                row = rows[i]
                i += 1
                ok = True
                for pos, tid in const_checks:
                    if row[pos] != tid:
                        ok = False
                        break
                if not ok:
                    continue
                bound_here: Optional[List[int]] = None
                for slot, p0, rest in groups:
                    value = row[p0]
                    bound = assign[slot]
                    if bound is None:
                        ok = True
                        for p in rest:
                            if row[p] != value:
                                ok = False
                                break
                        if ok:
                            assign[slot] = value
                            if bound_here is None:
                                bound_here = [slot]
                            else:
                                bound_here.append(slot)
                            continue
                    elif bound == value:
                        ok = True
                        for p in rest:
                            if row[p] != bound:
                                ok = False
                                break
                        if ok:
                            continue
                    else:
                        ok = False
                    if bound_here:
                        for s in bound_here:
                            assign[s] = None
                    break
                if ok:
                    yield assign
                    if bound_here:
                        for s in bound_here:
                            assign[s] = None
            return
        rows_stack: List[Sequence] = [_EMPTY_ROWS] * n
        idx_stack = [0] * n
        lim_stack = [0] * n
        trail: List[List[int]] = [[]] * n
        depth = 0
        rows, lim = steps[0].candidates(instance, assign)
        rows_stack[0] = rows
        lim_stack[0] = lim
        last = n - 1
        while True:
            step = steps[depth]
            const_checks = step.const_checks
            groups = step.groups
            rows = rows_stack[depth]
            i = idx_stack[depth]
            lim = lim_stack[depth]
            newly: Optional[List[int]] = None
            # -- innermost loop: scan candidate rows, match inline ----
            while i < lim:
                row = rows[i]
                i += 1
                ok = True
                for pos, tid in const_checks:
                    if row[pos] != tid:
                        ok = False
                        break
                if not ok:
                    continue
                bound_here: Optional[List[int]] = None
                for slot, p0, rest in groups:
                    value = row[p0]
                    bound = assign[slot]
                    if bound is None:
                        ok = True
                        for p in rest:
                            if row[p] != value:
                                ok = False
                                break
                        if ok:
                            assign[slot] = value
                            if bound_here is None:
                                bound_here = [slot]
                            else:
                                bound_here.append(slot)
                            continue
                    elif bound == value:
                        ok = True
                        for p in rest:
                            if row[p] != bound:
                                ok = False
                                break
                        if ok:
                            continue
                    else:
                        ok = False
                    if bound_here:
                        for s in bound_here:
                            assign[s] = None
                    break
                if ok:
                    newly = bound_here if bound_here is not None else []
                    break
            idx_stack[depth] = i
            if newly is None:
                depth -= 1
                if depth < 0:
                    return
                for s in trail[depth]:
                    assign[s] = None
                continue
            if depth == last:
                yield assign
                for s in newly:
                    assign[s] = None
            else:
                trail[depth] = newly
                depth += 1
                rows, lim = steps[depth].candidates(instance, assign)
                rows_stack[depth] = rows
                idx_stack[depth] = 0
                lim_stack[depth] = lim

    def first(
        self, instance: Instance, assign: List[Optional[int]]
    ) -> bool:
        """True iff at least one full match exists from ``assign``."""
        for _ in self.run(instance, assign):
            return True
        return False


# -- per-instance resolution -----------------------------------------------

_RESOLVE_CACHE_CAP = 4096
_PLAN_ATOM_CAP = 32
"""Conjunctions longer than this (instance-sized bodies synthesised by
``instance_homomorphism``) are resolved fresh each call instead of
cached: they would pin large execs and, on hitting the entry cap,
evict every small hot exec at once."""


def resolve_exec(
    instance: Instance, ordered_atoms: Sequence[Atom]
) -> PlanExec:
    """The (per-instance cached) exec running ``ordered_atoms`` in the
    given order."""
    key = tuple(ordered_atoms)
    cache = instance._plans
    exec_ = cache.get(key)
    if exec_ is None:
        env: Dict[Variable, int] = {}
        steps = [ResolvedStep(instance, atom, env) for atom in key]
        exec_ = PlanExec(steps, env)
        if len(key) <= _PLAN_ATOM_CAP:
            if len(cache) >= _RESOLVE_CACHE_CAP:
                cache.clear()
            cache[key] = exec_
    return exec_


def order_atoms(
    atoms: Sequence[Atom],
    instance: Instance,
    bound: FrozenSet[Variable] = frozenset(),
) -> Tuple[Atom, ...]:
    """Join order: connected atoms first, then fewest candidate facts,
    then fewest new variables (most-constrained-first).

    ``bound`` are the variables an outer context has already fixed
    (e.g. a semi-naive pivot's bindings) — atoms sharing them count as
    connected and can seed index probes immediately.
    """
    remaining = [
        (atom, atom.variables(), instance.count_with_predicate(atom.predicate))
        for atom in atoms
    ]
    ordered: List[Atom] = []
    seen: Set[Variable] = set(bound)
    while remaining:

        def cost(entry: Tuple[Atom, Set[Variable], int]) -> Tuple[bool, int, int]:
            _, atom_vars, fan_out = entry
            disconnected = bool(atom_vars) and not (atom_vars & seen)
            return (disconnected, fan_out, len(atom_vars - seen))

        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best[0])
        seen |= best[1]
    return tuple(ordered)
