"""Compiled conjunctive queries: int-native evaluation end-to-end.

The object-level CQ path (PR 0–4) enumerated ``Variable → Term`` dicts
through :func:`repro.model.homomorphisms`, built a ``Term`` tuple per
candidate answer, and deduplicated those tuples in a set — paying an
object decode, k tuple hashes of interned terms, and a dict per match
even when the match was a duplicate about to be dropped.

:class:`CompiledQuery` keeps the whole pipeline in id space:

* the body is put in the cost order
  (:func:`repro.query.planner.order_for`) and resolved to a slot-compiled
  :class:`~repro.model.joinplan.PlanExec`;
* answers are projected out of the live slot list by a compiled
  ``itemgetter`` — an *int* tuple, no Term materialization;
* deduplication happens on those int tuples, so the dedup set holds
  small-int tuples instead of Term tuples (the ``answers`` memory
  fix), and only tuples that survive dedup (and, for certain answers,
  the null-freeness filter) are ever decoded;
* **distinct-projection pushdown** — the plan is split at the first
  step binding every answer variable; prefix matches whose projection
  was already emitted are skipped before the residual join runs at
  all, and unseen projections need only an *existence* probe of the
  residual (the first witness proves the answer; enumerating the rest
  is pure duplicate work).  Answer sets and first-seen emission order
  are identical to full enumeration;
* null-freeness is a term-id *kind* check — each distinct id is
  classified once per instance (memoized), so certain-answer filtering
  never rebuilds Term tuples just to inspect them;
* resolved plans are cached per ``(query, fact-count bucket)``: the
  planner replans only when the instance's statistics have shifted a
  power-of-two bucket, so repeated evaluation over a growing chase
  result is two dict hits in the steady state.

The object-level :func:`repro.model.homomorphisms` surface stays
untouched — it is the public compatibility API and the differential-
test oracle the property tests compare this engine against.

**Snapshot-pinned evaluation.**  Everything here works unchanged over
a :class:`~repro.model.instances.SnapshotInstance` (a watermark view of
a live instance — see :mod:`repro.storage.snapshot`): resolution binds
the snapshot store's *bounded* accessors, so a plan resolved against a
snapshot can never observe rows appended after its watermark, even
while a writer thread extends the base concurrently.  Plans are cached
in each instance's own ``_plans`` dict — deliberately **not** shared
between a base and its snapshots (a resolved step captures its store's
accessor methods at build time, so reusing a base plan on a snapshot
would read past the watermark).  A snapshot's fact count is frozen, so
its first evaluation of a query builds the plan and every later
request pinned to the same published snapshot is a cache hit; the
query server re-pays one plan build per *ingest leg*, not per request.
Concurrent readers sharing one snapshot race only on insert-only dict
caches (``_plans``, the null-kind memo, the decode cache), which is
safe under the GIL — and evaluation itself never writes to the store.
"""

from __future__ import annotations

from operator import itemgetter as _itemgetter
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..model.atoms import Atom
from ..model.instances import Instance
from ..model.joinplan import _RESOLVE_CACHE_CAP, PlanExec, resolve_exec
from ..model.terms import Null, Term, Variable
from . import kernels as _kernels
from .planner import order_for

#: Budget-check cadence inside evaluation loops (per prefix match).
_BUDGET_CHECK_EVERY = 1024


def _empty_project(match):
    return ()


def _single_project(slot: int):
    def project(match):
        return (match[slot],)

    return project


class CompiledQuery:
    """A conjunctive query compiled for repeated int-native evaluation.

    ``answer_variables`` may repeat and may be empty (a boolean query);
    every answer variable must occur in ``atoms``.  The body runs in
    the cost order (:func:`repro.query.planner.order_for`).

    ``kernel`` selects the execution tier (see
    :data:`repro.query.kernels.KERNELS`): ``"tuple"`` is the original
    tuple-at-a-time executor and the default; ``"vector"`` evaluates
    the same plan as columnar batch hash joins (order-exact — answers
    come back byte-identical, sequence included); ``"auto"`` picks per
    instance from the join graph's shape and the columnar statistics,
    running the leapfrog worst-case-optimal join on cyclic bodies
    (set-identical answers, enumerated in trie order).  Without NumPy
    a ``vector`` evaluation runs the tuple executor, with the same
    answers in the same order.

    Instances are stateless with respect to any particular
    :class:`~repro.model.instances.Instance` — resolved plans live in
    the instance's own cache — so one ``CompiledQuery`` may be reused
    across many instances and many growth stages of one instance.
    ``stats`` counts plan builds vs cache hits, which is how the tests
    observe bucket-crossing replans.

    Evaluation is read-only and safe to run from many threads at once
    over the same instance or snapshot (the query server does exactly
    this); the only shared mutations are insert-only dict caches.  The
    ``stats`` counters are best-effort under such races — they guide
    tests and tuning, never results.
    """

    __slots__ = ("answer_variables", "atoms", "kernel", "stats")

    def __init__(
        self,
        answer_variables: Sequence[Variable],
        atoms: Sequence[Atom],
        kernel: str = "tuple",
    ):
        self.answer_variables: Tuple[Variable, ...] = tuple(answer_variables)
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        _kernels.check_kernel(kernel)
        self.kernel = kernel
        if not self.atoms:
            raise ValueError("a compiled query needs at least one atom")
        body_vars = set()
        for atom in self.atoms:
            body_vars |= atom.variables()
        for var in self.answer_variables:
            if var not in body_vars:
                raise ValueError(
                    f"answer variable {var} does not occur in the query body"
                )
        self.stats: Dict[str, int] = {
            "plans": 0,
            "plan_hits": 0,
            "early_outs": 0,
        }

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_variables)
        body = ", ".join(str(a) for a in self.atoms)
        return (
            f"CompiledQuery(({head}) :- {body}, kernel={self.kernel})"
        )

    # -- plan resolution ----------------------------------------------------

    def _resolved(self, instance: Instance):
        """``(prefix, suffix, project, slots, full)`` for ``instance``
        at its current growth bucket.

        The cost-ordered body is resolved into one shared slot
        space and split at the first step binding every answer
        variable: ``prefix`` enumerates up to that point (where the
        projection is determined), ``suffix`` is the residual join
        (``None`` when the whole body is needed to bind the answers),
        and ``project`` reads the answer id tuple off the live slot
        list.  Both execs share the full slot space, so a prefix
        match's slot list seeds the suffix probe directly.  ``slots``
        is the answer variables' slot tuple and ``full`` the unsplit
        plan — what the batch kernels consume.
        """
        cache = instance._plans
        key = (
            "cq",
            self.atoms,
            self.answer_variables,
            len(instance).bit_length(),
        )
        entry = cache.get(key)
        if entry is None:
            self.stats["plans"] += 1
            ordered = order_for(self.atoms, instance)
            # Reuse the shared per-instance resolution (same steps and
            # slot space the engines use) instead of re-resolving.
            exec_ = resolve_exec(instance, ordered)
            steps = exec_.steps
            env = exec_.slot_of
            slots = tuple(env[v] for v in self.answer_variables)
            if not slots:
                project = _empty_project
            elif len(slots) == 1:
                project = _single_project(slots[0])
            else:
                project = _itemgetter(*slots)
            need = set(slots)
            split = len(steps)
            bound: Set[int] = set()
            if need <= bound:
                split = 0
            else:
                for index, step in enumerate(steps):
                    bound.update(slot for slot, _, _ in step.groups)
                    if need <= bound:
                        split = index + 1
                        break
            if split == len(steps):
                # No residual: the full plan is the prefix.
                prefix, suffix = exec_, None
            else:
                prefix = PlanExec(steps[:split], env)
                suffix = PlanExec(steps[split:], env)
            entry = (prefix, suffix, project, slots, exec_)
            if len(cache) >= _RESOLVE_CACHE_CAP:
                cache.clear()
            cache[key] = entry
        else:
            self.stats["plan_hits"] += 1
        return entry

    def _effective_kernel(self, instance: Instance) -> str:
        """The kernel that runs over ``instance``: ``"auto"`` resolved
        per growth bucket (the pick is a statistics read), then
        ``"vector"`` mapped to ``"tuple"`` when NumPy is not installed.
        Only a ``"vector"`` pick imports NumPy."""
        kernel = self.kernel
        if kernel == "auto":
            cache = instance._plans
            key = ("kern", self.atoms, len(instance).bit_length())
            kernel = cache.get(key)
            if kernel is None:
                kernel = _kernels.choose_kernel(self.atoms, instance)
                if len(cache) >= _RESOLVE_CACHE_CAP:
                    cache.clear()
                cache[key] = kernel
        if kernel == "vector" and not _kernels.numpy_active():
            return "tuple"
        return kernel

    def _unsatisfiable(self, instance: Instance, steps) -> bool:
        """Early-out (carried PR 5 follow-up): True when some step of
        the plan — prefix or distinct-projection pushdown *residue* —
        can never match: its relation is empty, or a constant's posting
        list at one of its positions is empty.  Zero matches for any
        single step means zero answers for the conjunction, so callers
        skip enumeration (and in particular never pay a prefix scan
        whose residual probes are doomed to fail every time)."""
        for step in steps:
            if not instance.rows_of(step.pid):
                self.stats["early_outs"] += 1
                return True
            for pos, tid in step.const_checks:
                if not instance.probe_rows(step.pid, pos, tid):
                    self.stats["early_outs"] += 1
                    return True
        return False

    def _null_kinds(self, instance: Instance) -> Dict[int, bool]:
        """The instance's ``term id -> is-null`` memo (lives in the
        instance's plan cache and dies with it)."""
        cache = instance._plans
        kinds = cache.get("null_kind")
        if kinds is None:
            kinds = cache["null_kind"] = {}
        return kinds

    # -- evaluation ---------------------------------------------------------

    def matches_ids(
        self, instance: Instance, budget=None
    ) -> Iterator[Tuple[int, ...]]:
        """Every body match, projected to the answer variables' term
        ids — *not* deduplicated and with no pushdown (consumers doing
        their own keying, e.g. the universality check, dedup on a
        coarser projection and need every match).

        Under ``kernel="vector"`` the same sequence comes back from the
        batch pipeline (order-exact); the leapfrog engine ``"auto"``
        picks for cyclic bodies yields the same multiset in trie
        order."""
        _, _, project, slots, exec_ = self._resolved(instance)
        if self._unsatisfiable(instance, exec_.steps):
            return
        kernel = self._effective_kernel(instance)
        if kernel == "vector":
            yield from _kernels.run_batch(exec_, instance, slots, budget)
            return
        if kernel == "wcoj":
            yield from _kernels.run_wcoj(exec_, instance, slots, budget)
            return
        assign = exec_.fresh_assign()
        seen = 0
        for match in exec_.run(instance, assign):
            if budget is not None:
                seen += 1
                if not seen % _BUDGET_CHECK_EVERY:
                    budget.raise_if_exceeded()
            yield project(match)

    def answer_ids(
        self, instance: Instance, budget=None
    ) -> Iterator[Tuple[int, ...]]:
        """Deduplicated answer tuples in id space, in first-seen order
        (identical, set and order, to deduplicating the full
        enumeration — the pushdown only skips work that could not
        produce a new answer).

        ``budget`` (a :class:`repro.runtime.budget.Budget`) is checked
        every few prefix matches; a tripped budget raises
        :class:`~repro.errors.BudgetExceededError` — already-yielded
        answers are valid (evaluation is read-only, enumeration just
        stops early)."""
        prefix, suffix, project, slots, full = self._resolved(instance)
        if self._unsatisfiable(instance, full.steps):
            return
        kernel = self._effective_kernel(instance)
        seen: Set[Tuple[int, ...]] = set()
        add = seen.add
        if kernel == "vector":
            # Batch enumeration is order-exact, so first-seen dedup of
            # the batch equals the pushdown path byte-for-byte — and
            # run_batch_unique performs it at array speed.
            yield from _kernels.run_batch_unique(
                full, instance, slots, budget
            )
            return
        if kernel == "wcoj":
            for ids in _kernels.run_wcoj(full, instance, slots, budget):
                if ids not in seen:
                    add(ids)
                    yield ids
            return
        assign = prefix.fresh_assign()
        matches = 0
        if suffix is None:
            for match in prefix.run(instance, assign):
                if budget is not None:
                    matches += 1
                    if not matches % _BUDGET_CHECK_EVERY:
                        budget.raise_if_exceeded()
                ids = project(match)
                if ids not in seen:
                    add(ids)
                    yield ids
            return
        suffix_first = suffix.first
        for match in prefix.run(instance, assign):
            if budget is not None:
                matches += 1
                if not matches % _BUDGET_CHECK_EVERY:
                    budget.raise_if_exceeded()
            ids = project(match)
            if ids in seen:
                continue
            # The suffix probes from a copy: PlanExec.first abandons
            # its generator mid-enumeration, which may leave bindings
            # on the list it was given.
            if suffix_first(instance, list(match)):
                add(ids)
                yield ids

    def answers(
        self, instance: Instance, budget=None
    ) -> Iterator[Tuple[Term, ...]]:
        """Naive answers (nulls treated as values), decoded lazily —
        only tuples that survive the int-space dedup materialize."""
        obj = instance.symbols.obj
        for ids in self.answer_ids(instance, budget=budget):
            yield tuple(obj(tid) for tid in ids)

    def certain_ids(
        self, instance: Instance, budget=None
    ) -> Iterator[Tuple[int, ...]]:
        """Deduplicated null-free answer tuples in id space.

        Null-freeness is a per-id *kind* check: each distinct term id
        is classified once per instance, so filtering never decodes
        whole tuples just to drop them — and null-containing
        projections are dropped *before* the residual-join probe (a
        null answer can never become certain).
        """
        prefix, suffix, project, slots, full = self._resolved(instance)
        if self._unsatisfiable(instance, full.steps):
            return
        kinds = self._null_kinds(instance)
        obj = instance.symbols.obj
        kernel = self._effective_kernel(instance)
        if kernel in ("vector", "wcoj"):
            if kernel == "vector":
                # Already first-seen-deduplicated at array speed.
                projected = _kernels.run_batch_unique(
                    full, instance, slots, budget
                )
            else:
                projected = _kernels.run_wcoj(full, instance, slots, budget)
            batch_seen: Set[Tuple[int, ...]] = set()
            batch_add = batch_seen.add
            for ids in projected:
                if ids in batch_seen:
                    continue
                batch_add(ids)
                certain = True
                for tid in ids:
                    kind = kinds.get(tid)
                    if kind is None:
                        kind = kinds[tid] = isinstance(obj(tid), Null)
                    if kind:
                        certain = False
                        break
                if certain:
                    yield ids
            return
        assign = prefix.fresh_assign()
        seen: Set[Tuple[int, ...]] = set()
        add = seen.add
        suffix_first = suffix.first if suffix is not None else None
        matches = 0
        for match in prefix.run(instance, assign):
            if budget is not None:
                matches += 1
                if not matches % _BUDGET_CHECK_EVERY:
                    budget.raise_if_exceeded()
            ids = project(match)
            if ids in seen:
                continue
            certain = True
            for tid in ids:
                kind = kinds.get(tid)
                if kind is None:
                    kind = kinds[tid] = isinstance(obj(tid), Null)
                if kind:
                    certain = False
                    break
            if not certain:
                # Remember the verdict so later duplicates skip the
                # per-id checks too.
                add(ids)
                continue
            if suffix_first is not None and not suffix_first(
                instance, list(match)
            ):
                continue
            add(ids)
            yield ids

    def certain_answers(
        self, instance: Instance, budget=None
    ) -> List[Tuple[Term, ...]]:
        """Null-free answers, decoded and sorted for determinism (the
        certain answers of the query when ``instance`` is a universal
        model)."""
        obj = instance.symbols.obj
        out = [
            tuple(obj(tid) for tid in ids)
            for ids in self.certain_ids(instance, budget=budget)
        ]
        return sorted(out, key=lambda tup: tuple(str(t) for t in tup))

    def holds_in(self, instance: Instance, budget=None) -> bool:
        """Boolean evaluation: does any body match exist?"""
        prefix, suffix, project, slots, full = self._resolved(instance)
        if self._unsatisfiable(instance, full.steps):
            return False
        kernel = self._effective_kernel(instance)
        if kernel == "vector":
            return _kernels.batch_exists(full, instance, budget)
        if kernel == "wcoj":
            return _kernels.wcoj_exists(full, instance, budget)
        assign = prefix.fresh_assign()
        if suffix is None:
            return prefix.first(instance, assign)
        suffix_first = suffix.first
        matches = 0
        for match in prefix.run(instance, assign):
            if budget is not None:
                matches += 1
                if not matches % _BUDGET_CHECK_EVERY:
                    budget.raise_if_exceeded()
            if suffix_first(instance, list(match)):
                return True
        return False
