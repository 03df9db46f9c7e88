"""Batch execution kernels: vectorized hash joins and a worst-case-
optimal (leapfrog) multiway join over the interned int columns.

The tuple-at-a-time executor (:class:`repro.model.joinplan.PlanExec`)
pays a Python-level loop iteration per candidate row per join level.
This module adds the next speed tier (ROADMAP item 3): evaluate a
resolved step sequence as **columnar batch operations** — materialize
each relation once as a dense int matrix, filter constants and
repeated-variable positions with vectorized masks, and join whole
column arrays at a time with a sort-based vectorized hash join
(joint factorization + ``searchsorted`` range expansion).  NumPy is an
*optional* dependency and the only batch engine: without it, callers
run the tuple loop wherever they would have batched (see
:func:`numpy_active`), which changes no answer because the batch join
reproduces that loop's order.  NumPy is imported when the first batch
kernel is chosen, not when this module is.

Two kernels live here:

* **vector** (:func:`run_batch`) — pipelined hash joins following the
  planner's step order.  The join is *order-exact*: for each
  intermediate tuple (in order), matching candidate rows are emitted
  in relation insertion order, which is precisely the depth-first
  enumeration order of ``PlanExec.run``.  Batch results are therefore
  byte-identical, sequence included, to the tuple engine — the chase
  engines can swap it in for fat rounds without perturbing null
  naming, trigger keys, or fingerprints (``tests/test_kernels.py``
  holds it to order-exactness, not just set equality).

* **wcoj** (:func:`run_wcoj`) — a leapfrog-triejoin-style worst-case-
  optimal join for **cyclic** CQs, where every binary join plan is
  provably suboptimal (the AGM bound; Ngo–Porat–Ré–Rudra, Veldhuizen's
  LeapFrog TrieJoin).  Each atom's candidate rows are projected to its
  variables in one global variable order and sorted lexicographically
  (a flattened trie); evaluation intersects the per-variable sorted
  runs by leapfrogging bisection seeks, so a triangle query never
  materializes the quadratic binary intermediate.  The trie is pure
  Python on purpose: it measured faster than a NumPy twin (PERF.md).  Output order
  is the leapfrog order (sorted by term id along the variable order),
  *not* the tuple engine's — consumers get set-identical answers.
  Only ``auto`` runs it; it is not a kernel a caller can force.

Kernel selection (``"auto"``) is cost-based from the columnar
statistics: cyclic join graphs (GYO reduction leaves a residue) pick
``wcoj``; fat multi-atom joins pick ``vector``; everything else stays
on the tuple engine, whose per-call overhead is unbeatable for small
inputs.  :class:`repro.query.compiled.CompiledQuery` and the chase's
delta discovery (:mod:`repro.chase.delta`) both route through here —
see ``kernel=`` on :class:`~repro.query.compiled.CompiledQuery`,
``--kernel`` on the CLI, and the fat-round gate in
:func:`repro.chase.delta.delta_triggers`.

Candidate matrices are cached per ``(pred, row-count, filter)`` in the
instance's plan cache: rows are append-only, so a matrix is valid as
long as the relation has not grown, and snapshot-bounded accessors
(``instance.rows_of``) keep every kernel watermark-consistent on
:class:`~repro.model.instances.SnapshotInstance` views.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..model.atoms import Atom
from ..model.instances import Instance
from ..model.joinplan import _RESOLVE_CACHE_CAP, PlanExec, ResolvedStep

#: The closed kernel vocabulary accepted by ``CompiledQuery(kernel=)``,
#: the CLI's ``--kernel`` flag, and the serve API.
KERNELS = ("tuple", "vector", "auto")

#: ``auto`` picks the vector kernel only when the conjunction's
#: relations hold at least this many rows in total — below it the
#: tuple engine's lower per-call overhead wins.
AUTO_VECTOR_MIN_ROWS = 2048

#: Joint key codes are re-factorized before a combine could overflow
#: this many bits (int64 is 63 usable bits; 62 leaves slack).
_CODE_BITS = 62

_UNLOADED = object()
#: The NumPy module the batch kernels use, ``None`` when it is not
#: installed, or :data:`_UNLOADED` until the first :func:`numpy_active`
#: call — importing this module does not import NumPy.
_np = _UNLOADED


def check_kernel(kernel: str) -> None:
    """Raise ``ValueError`` unless ``kernel`` is one of :data:`KERNELS`."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )


def numpy_active() -> bool:
    """True iff NumPy is installed, i.e. the batch kernels can run;
    callers run the tuple loop when it is False.  The first call
    imports NumPy."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
    return _np is not None


# -- join-graph shape -------------------------------------------------------


def is_cyclic(atoms: Sequence[Atom]) -> bool:
    """True iff the conjunction's join graph is cyclic (not
    α-acyclic), decided by GYO ear removal.

    Hyperedges are the atoms' variable sets.  Repeatedly (a) drop
    variables occurring in exactly one edge and (b) drop edges
    contained in another edge; the query is acyclic iff the reduction
    empties the edge set.  Cyclic CQs (triangles and denser) are where
    binary join plans are provably suboptimal and ``auto`` selects the
    worst-case-optimal kernel.
    """
    edges: List[Set] = []
    for atom in atoms:
        vars_ = set(atom.variables())
        if vars_:
            edges.append(vars_)
    changed = True
    while changed and edges:
        changed = False
        counts: Dict = {}
        for edge in edges:
            for var in edge:
                counts[var] = counts.get(var, 0) + 1
        for edge in edges:
            lone = {v for v in edge if counts[v] == 1}
            if lone:
                edge -= lone
                changed = True
        kept: List[Set] = []
        for i, edge in enumerate(edges):
            if not edge:
                changed = True
                continue
            absorbed = False
            for j, other in enumerate(edges):
                if i == j or not other:
                    continue
                if edge < other or (edge == other and j < i):
                    absorbed = True
                    break
            if absorbed:
                changed = True
                continue
            kept.append(edge)
        edges = kept
    return bool(edges)


def choose_kernel(atoms: Sequence[Atom], instance: Instance) -> str:
    """The cost-based ``auto`` pick for one conjunction over one
    instance: ``wcoj`` (the leapfrog engine, which only ``auto``
    runs) for cyclic join graphs with at least three atoms,
    ``vector`` for fat multi-atom joins (total candidate rows at or
    above :data:`AUTO_VECTOR_MIN_ROWS`), ``tuple`` otherwise."""
    if len(atoms) >= 3 and is_cyclic(atoms):
        return "wcoj"
    if len(atoms) >= 2:
        total = 0
        for atom in atoms:
            total += instance.count_with_predicate(atom.predicate)
        if total >= AUTO_VECTOR_MIN_ROWS:
            return "vector"
    return "tuple"


# -- candidate materialization ----------------------------------------------


def _matrix(rows: Sequence[Tuple[int, ...]], arity: int):
    """``rows`` as a dense ``(len(rows), arity)`` int64 matrix."""
    n = len(rows)
    return _np.fromiter(
        chain.from_iterable(rows), dtype=_np.int64, count=n * arity
    ).reshape(n, arity)


def _filtered(mat, step: ResolvedStep):
    """The rows of ``mat`` that pass ``step``'s constant and
    intra-atom repeated-variable checks."""
    mask = None
    for pos, tid in step.const_checks:
        cond = mat[:, pos] == tid
        mask = cond if mask is None else (mask & cond)
    for _, p0, rest in step.groups:
        for p in rest:
            cond = mat[:, p] == mat[:, p0]
            mask = cond if mask is None else (mask & cond)
    return mat if mask is None else mat[mask]


def _relation_matrix(instance: Instance, pid: int, arity: int):
    """The relation's rows as a :func:`_matrix`, cached per ``(pid,
    row count)`` — append-only rows make the count a sufficient
    validity key, and snapshot-bounded ``rows_of`` keeps views
    watermark-consistent."""
    rows = instance.rows_of(pid)
    cache = instance._plans
    key = ("kmat", pid, len(rows))
    mat = cache.get(key)
    if mat is None:
        mat = _matrix(rows, arity)
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = mat
    return mat


def _step_filter_key(step: ResolvedStep) -> Tuple:
    return (
        step.const_checks,
        tuple((p0, rest) for _, p0, rest in step.groups),
    )


def _candidate_matrix(instance: Instance, step: ResolvedStep):
    """``step``'s candidate rows — constants and intra-atom repeated
    variables pre-verified — as a filtered matrix, cached per
    ``(pid, row count, filter)``."""
    n = len(instance.rows_of(step.pid))
    cache = instance._plans
    key = ("kcand", step.pid, n, _step_filter_key(step))
    cand = cache.get(key)
    if cand is None:
        cand = _filtered(
            _relation_matrix(instance, step.pid, len(step.build)), step
        )
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = cand
    return cand


def _candidates(
    instance: Instance, step: ResolvedStep
) -> List[Tuple[int, ...]]:
    """:func:`_candidate_matrix` as a filtered row list in insertion
    order — what the leapfrog tries are built from."""
    rows = instance.rows_of(step.pid)
    cache = instance._plans
    key = ("kcand-py", step.pid, len(rows), _step_filter_key(step))
    cand = cache.get(key)
    if cand is None:
        const_checks = step.const_checks
        groups = step.groups
        cand = []
        for row in rows:
            ok = True
            for pos, tid in const_checks:
                if row[pos] != tid:
                    ok = False
                    break
            if ok:
                for _, p0, rest in groups:
                    value = row[p0]
                    for p in rest:
                        if row[p] != value:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                cand.append(row)
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = cand
    return cand


# -- the vectorized hash-join pipeline --------------------------------------


def _join_codes(probe_cols, build_cols):
    """Joint factorization of a multi-column equi-join key: returns
    ``(probe_code, build_code)`` int64 arrays where equal codes mean
    equal key tuples.  Columns are factorized against the union of
    both sides so the code spaces line up; codes are re-factorized
    whenever a combine could overflow 62 bits."""
    np = _np
    pcode = None
    bcode = None
    width = 1
    for pc, bc in zip(probe_cols, build_cols):
        both = np.concatenate([pc, bc])
        uniq, inv = np.unique(both, return_inverse=True)
        base = len(uniq) + 1
        pinv = inv[: len(pc)]
        binv = inv[len(pc):]
        if pcode is None:
            pcode, bcode, width = pinv, binv, base
            continue
        if width * base >= 1 << _CODE_BITS:
            both = np.concatenate([pcode, bcode])
            uniq, inv = np.unique(both, return_inverse=True)
            pcode = inv[: len(pcode)]
            bcode = inv[len(pcode):]
            width = len(uniq) + 1
        pcode = pcode * base + pinv
        bcode = bcode * base + binv
        width *= base
    return pcode, bcode


def _expand_join(pcode, bcode):
    """The order-exact range expansion of a vectorized hash join:
    ``(probe_idx, build_idx)`` index arrays such that iterating them
    visits, for each probe tuple in order, its matching build rows in
    insertion order — exactly the tuple engine's DFS order."""
    np = _np
    order = np.argsort(bcode, kind="stable")
    sorted_codes = bcode[order]
    left = np.searchsorted(sorted_codes, pcode, side="left")
    right = np.searchsorted(sorted_codes, pcode, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(pcode), dtype=np.intp), counts)
    starts = np.repeat(left, counts)
    prefix = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.intp) - prefix
    build_idx = order[starts + within]
    return probe_idx, build_idx


class _Batch:
    """The batch state: one int64 column per bound slot, all of one
    length ``m`` (``m`` starts at 1 with zero columns — the single
    empty assignment)."""

    __slots__ = ("cols", "m")

    def __init__(self, cols: Dict[int, object], m: int):
        self.cols = cols
        self.m = m

    def apply(self, instance: Instance, step: ResolvedStep) -> bool:
        """Join one step in; False when the batch became empty."""
        np = _np
        cand = _candidate_matrix(instance, step)
        k = len(cand)
        cols = self.cols
        bound = [(slot, p0) for slot, p0, _ in step.groups if slot in cols]
        fresh = [
            (slot, p0) for slot, p0, _ in step.groups if slot not in cols
        ]
        if k == 0:
            self.m = 0
            return False
        if not bound:
            # No shared slots: an order-preserving cross product (for
            # an all-constant atom k is 0 or 1 — a semi-join).
            m = self.m
            if fresh:
                if cols:
                    probe_idx = np.repeat(np.arange(m, dtype=np.intp), k)
                    build_idx = np.tile(np.arange(k, dtype=np.intp), m)
                    for slot in list(cols):
                        cols[slot] = cols[slot][probe_idx]
                    for slot, p0 in fresh:
                        cols[slot] = cand[build_idx, p0]
                    self.m = m * k
                else:
                    for slot, p0 in fresh:
                        cols[slot] = cand[:, p0].copy()
                    self.m = k
            # No fresh slots either (pure existence check): k >= 1
            # rows survive the const filter, batch unchanged.
            return self.m > 0
        probe_cols = [cols[slot] for slot, _ in bound]
        build_cols = [cand[:, p0] for _, p0 in bound]
        pcode, bcode = _join_codes(probe_cols, build_cols)
        probe_idx, build_idx = _expand_join(pcode, bcode)
        if len(probe_idx) == 0:
            self.m = 0
            return False
        for slot in list(cols):
            cols[slot] = cols[slot][probe_idx]
        for slot, p0 in fresh:
            cols[slot] = cand[build_idx, p0]
        self.m = len(probe_idx)
        return True

    def join(self, instance: Instance, steps, budget) -> bool:
        """:meth:`apply` every step of ``steps`` in order, checking
        ``budget`` before each; False as soon as the batch is empty."""
        for step in steps:
            if budget is not None:
                budget.raise_if_exceeded()
            if not self.apply(instance, step):
                return False
        return True

    def project(self, slots: Sequence[int]) -> List[Tuple[int, ...]]:
        """The batch projected to ``slots`` as a list of int tuples,
        in batch (i.e. DFS-exact) order."""
        if self.m == 0:
            return []
        if not slots:
            return [()] * self.m
        np = _np
        stacked = np.stack([self.cols[s] for s in slots], axis=1)
        # tolist() converts to Python ints in C; the per-row
        # tuple(map(int, row)) alternative is ~10x slower and was the
        # difference between winning and losing the bench gate.
        return list(map(tuple, stacked.tolist()))


def run_batch(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """Evaluate ``exec_``'s step sequence as a batched hash-join
    pipeline and return every full match projected to ``answer_slots``
    — **not** deduplicated, in exactly the order ``exec_.run`` would
    enumerate (order-exactness is what lets the chase engines use this
    kernel without perturbing results).  NumPy must be installed
    (:func:`numpy_active`), as for every batch entry point here."""
    batch = _Batch({}, 1)
    if not batch.join(instance, exec_.steps, budget):
        return []
    return batch.project(tuple(answer_slots))


def _row_codes(cols):
    """One int64 code per row of the column set, equal codes iff equal
    row tuples.  Term ids are non-negative, so ``max + 1`` is a valid
    mixed-radix base per column — one O(n) max instead of the O(n log n)
    per-column unique — with the same 62-bit overflow re-factorization
    as :func:`_join_codes` when the radix product grows too wide."""
    np = _np
    code = None
    width = 1
    for col in cols:
        base = (int(col.max()) if len(col) else 0) + 1
        if code is None:
            code, width = col, base
            continue
        if width * base >= 1 << _CODE_BITS:
            compressed, code = np.unique(code, return_inverse=True)
            width = len(compressed) + 1
        code = code * base + col
        width *= base
    return code


def run_batch_unique(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """:func:`run_batch` deduplicated to first occurrences, preserving
    first-seen order — byte-identical to deduplicating the tuple
    engine's enumeration (order-exactness again), but the dedup runs
    at array speed instead of one Python set probe per match."""
    batch = _Batch({}, 1)
    if not batch.join(instance, exec_.steps, budget):
        return []
    slots = tuple(answer_slots)
    if not slots:
        return [()]
    np = _np
    cols = [batch.cols[s] for s in slots]
    codes = _row_codes(cols)
    _, first = np.unique(codes, return_index=True)
    first.sort()
    stacked = np.stack(cols, axis=1)[first]
    return list(map(tuple, stacked.tolist()))


def batch_exists(exec_: PlanExec, instance: Instance, budget=None) -> bool:
    """Boolean evaluation on the vector kernel: does any full match
    exist?"""
    return _Batch({}, 1).join(instance, exec_.steps, budget)


def batch_rule_matches(
    instance: Instance,
    pivot_step: ResolvedStep,
    rest: Optional[PlanExec],
    pivot_rows: Sequence[Tuple[int, ...]],
    emit_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """The chase-discovery entry point: match ``pivot_rows`` against
    ``pivot_step``, join the rest-of-body steps in batch, and project
    each full match to ``emit_slots`` (the rule's sorted body
    variables) — in exactly the order the serial pivot-seeded loop
    yields them, so fat-round vectorized discovery is byte-identical
    to tuple-at-a-time discovery."""
    if not pivot_rows:
        return []
    # Seed: verify the pivot atom's constants and repeated variables
    # against each candidate row (the frontier hands in arbitrary rows
    # of the pivot's relation, in arrival order).
    mat = _filtered(_matrix(pivot_rows, len(pivot_step.build)), pivot_step)
    if len(mat) == 0:
        return []
    batch = _Batch(
        {slot: mat[:, p0] for slot, p0, _ in pivot_step.groups}, len(mat)
    )
    if rest is not None and not batch.join(instance, rest.steps, budget):
        return []
    return batch.project(tuple(emit_slots))


# -- the worst-case-optimal (leapfrog) kernel -------------------------------


class _Trie:
    """One atom's flattened trie: candidate rows projected to the
    atom's variable slots in global order, as sorted deduplicated
    tuples.  Windows on column ``c`` are sorted once the first ``c``
    columns are fixed, so a probe is a bisection."""

    __slots__ = ("slots", "rows", "size")

    def __init__(self, instance: Instance, step: ResolvedStep,
                 global_order: Sequence[int]):
        rank = {slot: i for i, slot in enumerate(global_order)}
        ordered = sorted(
            ((slot, p0) for slot, p0, _ in step.groups),
            key=lambda pair: rank[pair[0]],
        )
        self.slots = tuple(slot for slot, _ in ordered)
        cand = _candidates(instance, step)
        if not ordered:
            # All-constant atom: a zero-column trie whose emptiness is
            # the existence verdict.
            self.rows: List[Tuple[int, ...]] = []
            self.size = len(cand)
            return
        positions = [p0 for _, p0 in ordered]
        self.rows = sorted({tuple(row[p] for p in positions) for row in cand})
        self.size = len(self.rows)

    def seek(self, lo: int, hi: int, depth: int, value: int) -> int:
        """The first position in ``[lo, hi)`` whose ``depth``-th column
        is at least ``value``."""
        rows = self.rows
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][depth] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def at(self, pos: int, depth: int) -> int:
        return self.rows[pos][depth]


#: Budget-check cadence inside the leapfrog recursion (per binding).
_WCOJ_CHECK_EVERY = 4096


def _wcoj_variable_order(steps: Sequence[ResolvedStep]) -> Tuple[int, ...]:
    """The global slot order: most-shared variables first (they prune
    hardest), slot number as the deterministic tie-break."""
    seen_in: Dict[int, int] = {}
    for step in steps:
        for slot, _, _ in step.groups:
            seen_in[slot] = seen_in.get(slot, 0) + 1
    return tuple(sorted(seen_in, key=lambda slot: (-seen_in[slot], slot)))


def _run_wcoj_impl(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget,
    first_only: bool,
):
    steps = exec_.steps
    order = _wcoj_variable_order(steps)
    tries = [_Trie(instance, step, order) for step in steps]
    for trie in tries:
        if trie.size == 0:
            return []
    depth_parts: List[List[Tuple]] = []
    for d, slot in enumerate(order):
        parts = []
        for trie in tries:
            if slot in trie.slots:
                parts.append((trie, trie.slots.index(slot)))
        depth_parts.append(parts)
    n_slots = len(order)
    slot_value: Dict[int, int] = {}
    out: List[Tuple[int, ...]] = []
    answer = tuple(answer_slots)
    counter = [0]

    def recurse(depth: int, windows: Dict[int, Tuple[int, int]]) -> bool:
        """Returns True to stop the whole search (first_only hit)."""
        if depth == n_slots:
            out.append(tuple(slot_value[s] for s in answer))
            return first_only
        if budget is not None:
            counter[0] += 1
            if not counter[0] % _WCOJ_CHECK_EVERY:
                budget.raise_if_exceeded()
        parts = depth_parts[depth]
        slot = order[depth]
        # Leapfrog: intersect the participants' sorted runs at their
        # current column.
        states = []
        for trie, col in parts:
            lo, hi = windows[id(trie)]
            if lo >= hi:
                return False
            states.append([trie, col, lo, hi])
        while True:
            # Highest current head value across participants.
            value = None
            for state in states:
                trie, col, lo, hi = state
                head = trie.at(lo, col)
                if value is None or head > value:
                    value = head
            agreed = True
            for state in states:
                trie, col, lo, hi = state
                pos = trie.seek(lo, hi, col, value)
                state[2] = pos
                if pos >= hi:
                    return False
                if trie.at(pos, col) != value:
                    agreed = False
            if not agreed:
                continue
            # All participants carry ``value``: bind, narrow, recurse.
            # After the agreed seek each window's lo already sits on the
            # first occurrence of ``value``, so narrowing only needs the
            # run's upper edge (the first position of ``value + 1``).
            slot_value[slot] = value
            narrowed = dict(windows)
            for state in states:
                trie, col, lo, hi = state
                narrowed[id(trie)] = (lo, trie.seek(lo, hi, col, value + 1))
            if recurse(depth + 1, narrowed):
                return True
            # Advance past ``value`` on every participant: the narrowed
            # window's upper edge is exactly the position past the run.
            exhausted_after = False
            for state in states:
                state[2] = pos = narrowed[id(state[0])][1]
                if pos >= state[3]:
                    exhausted_after = True
            if exhausted_after:
                return False

    recurse(0, {id(trie): (0, trie.size) for trie in tries})
    return out


def run_wcoj(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """Evaluate ``exec_``'s conjunction with the leapfrog worst-case-
    optimal join and return the matches projected to ``answer_slots``.

    Bindings are enumerated in sorted-term-id order along the global
    variable order (the trie order), **not** the tuple engine's DFS
    order, and each distinct full binding is visited exactly once — so
    the projection may still contain duplicates (two bindings, one
    projection); callers dedup exactly as they would for the tuple
    engine."""
    return _run_wcoj_impl(exec_, instance, answer_slots, budget, False)


def wcoj_exists(exec_: PlanExec, instance: Instance, budget=None) -> bool:
    """Boolean evaluation on the worst-case-optimal kernel."""
    return bool(_run_wcoj_impl(exec_, instance, (), budget, True))
