"""Abstract bags: the finite state space of the guarded chase.

Guardedness makes the chase *tree-like*: every rule body maps into the
atoms over a single guard image's terms, so the chase of the critical
instance can be organised as a tree of **bags**.  A bag consists of

* its *terms* — the global constants (the critical domain) plus the
  labelled nulls the bag was created with; and
* its *cloud* — every atom over those terms present in the (fair,
  saturated) chase.

Because fresh nulls are interchangeable, a bag is characterised up to
isomorphism by its **type**: how many null terms it has and which atom
*patterns* (atoms over term classes) its cloud contains.  Types form a
finite space — exponential in the schema, which is precisely where the
2EXPTIME upper bound of Theorem 4 comes from.

Class-id convention: classes ``0 .. num_constants-1`` are the global
constants (fixed for a given program); classes ``num_constants ..``
are the bag's nulls.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..model import Atom, Constant, Instance, Predicate, Variable
from ..model.joinplan import resolve_exec
from ..query.planner import order_for

# An atom over term classes: (predicate, class ids).
AtomPattern = Tuple[Predicate, Tuple[int, ...]]

FRESH = -1
"""Flow marker: a child class created for an existential variable."""

_MAX_EXACT_CANON = 7
"""Largest null count for which canonicalization tries all permutations."""


def pattern_to_str(pattern: AtomPattern, num_constants: int,
                   constants: Sequence[Constant]) -> str:
    """Human-readable rendering of a pattern, e.g. ``p(*, n1)``."""
    pred, classes = pattern
    parts = []
    for cls in classes:
        if cls < num_constants:
            parts.append(str(constants[cls]))
        else:
            parts.append(f"n{cls - num_constants + 1}")
    return f"{pred.name}({', '.join(parts)})"


class BagType:
    """A canonicalized bag type: null count + cloud of atom patterns.

    Construction canonicalizes: null classes are renumbered so that
    isomorphic bags compare equal.  ``canonical_map`` records how the
    raw class ids passed in map to canonical ids, so callers can
    translate flow information.
    """

    __slots__ = ("num_constants", "num_nulls", "cloud", "canonical_map", "_hash")

    def __init__(
        self,
        num_constants: int,
        num_nulls: int,
        cloud: Iterable[AtomPattern],
    ):
        self.num_constants = num_constants
        self.num_nulls = num_nulls
        raw_cloud = frozenset(cloud)
        canon_cloud, mapping = _canonicalize(num_constants, num_nulls, raw_cloud)
        self.cloud = canon_cloud
        self.canonical_map = mapping
        self._hash = hash((num_constants, num_nulls, self.cloud))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BagType)
            and self.num_constants == other.num_constants
            and self.num_nulls == other.num_nulls
            and self.cloud == other.cloud
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"BagType(nulls={self.num_nulls}, cloud=<{len(self.cloud)} patterns>)"
        )

    @property
    def num_classes(self) -> int:
        """Total classes: constants + nulls."""
        return self.num_constants + self.num_nulls

    def null_classes(self) -> Tuple[int, ...]:
        """The class ids of this bag's nulls."""
        return tuple(range(self.num_constants, self.num_classes))

    def describe(self, constants: Sequence[Constant]) -> str:
        """A stable multi-line rendering for certificates and debugging."""
        lines = [
            pattern_to_str(p, self.num_constants, constants)
            for p in self.cloud
        ]
        return "{" + ", ".join(sorted(lines)) + "}"


def _canonicalize(
    num_constants: int,
    num_nulls: int,
    cloud: FrozenSet[AtomPattern],
) -> Tuple[FrozenSet[AtomPattern], Tuple[int, ...]]:
    """Renumber null classes to a canonical form.

    Returns ``(canonical_cloud, mapping)`` where ``mapping[i]`` is the
    canonical id of raw null class ``num_constants + i``.

    For small null counts every permutation is tried and the
    lexicographically least encoding wins — exact canonicalization.
    Beyond :data:`_MAX_EXACT_CANON` nulls, a signature-refinement
    heuristic is used; it is deterministic (equal bags stay equal) but
    may distinguish some isomorphic bags, which only costs memoization
    hits, never correctness.
    """
    if num_nulls == 0:
        return cloud, ()
    null_ids = list(range(num_constants, num_constants + num_nulls))
    if num_nulls <= _MAX_EXACT_CANON:
        best: Optional[Tuple] = None
        best_cloud: FrozenSet[AtomPattern] = cloud
        best_perm: Tuple[int, ...] = tuple(null_ids)
        for perm in itertools.permutations(null_ids):
            relabel = {old: new for old, new in zip(null_ids, perm)}
            new_cloud = frozenset(
                (pred, tuple(relabel.get(c, c) for c in classes))
                for pred, classes in cloud
            )
            encoding = tuple(
                sorted((pred.name, pred.arity, classes) for pred, classes in new_cloud)
            )
            if best is None or encoding < best:
                best = encoding
                best_cloud = new_cloud
                best_perm = perm
        return best_cloud, best_perm
    # Heuristic: order nulls by an occurrence signature, ties by id.
    signature: Dict[int, Tuple] = {}
    for null in null_ids:
        occurrences = sorted(
            (pred.name, pred.arity, pos)
            for pred, classes in cloud
            for pos, c in enumerate(classes)
            if c == null
        )
        signature[null] = tuple(occurrences)
    ordered = sorted(null_ids, key=lambda n: (signature[n], n))
    relabel = {
        old: num_constants + rank for rank, old in enumerate(ordered)
    }
    new_cloud = frozenset(
        (pred, tuple(relabel.get(c, c) for c in classes))
        for pred, classes in cloud
    )
    mapping = tuple(relabel[n] for n in null_ids)
    return new_cloud, mapping


def atom_to_pattern(
    atom: Atom,
    assignment: Dict[Variable, int],
    constant_class: Dict[Constant, int],
) -> AtomPattern:
    """Translate a rule atom to a pattern under a variable→class map."""
    classes: List[int] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            classes.append(assignment[term])
        elif isinstance(term, Constant):
            classes.append(constant_class[term])
        else:
            raise ValueError(f"nulls cannot appear in rule atoms: {atom}")
    return (atom.predicate, tuple(classes))


# -- the pattern-level join engine -----------------------------------------
#
# Patterns are just atoms over ints, so pattern-level joins can run on
# the same compiled, index-probing machinery as fact-level ones
# (:mod:`repro.model.joinplan`): each class id is interned as a ground
# *class term*, a cloud becomes an ordinary :class:`Instance` over
# class terms, and a rule body becomes a conjunction whose constants
# are rewritten to their constant-class terms.  The pre-index
# backtracking scan is retained as
# :func:`naive_pattern_homomorphisms`, the reference implementation
# the equivalence tests and the benchmark baseline run against.

_CLASS_TERMS: List[Constant] = []


def class_term(cls: int) -> Constant:
    """The interned ground term standing for class id ``cls``."""
    while cls >= len(_CLASS_TERMS):
        _CLASS_TERMS.append(Constant(("cls", len(_CLASS_TERMS))))
    return _CLASS_TERMS[cls]


def _pattern_sort_key(pattern: AtomPattern) -> Tuple:
    pred, classes = pattern
    return (pred.name, pred.arity, classes)


class PatternCloud:
    """A class-indexed bag cloud: the patterns materialized as ground
    atoms over class terms inside an :class:`Instance`, so pattern
    joins probe term-level indexes instead of scanning per atom.

    Patterns are inserted in a canonical sorted order — frozenset
    iteration order is hash-randomized across processes, sorted
    insertion is not — keeping enumeration deterministic run to run.
    """

    __slots__ = ("patterns", "instance", "_tid_class")

    def __init__(self, patterns: Iterable[AtomPattern]):
        self.patterns: FrozenSet[AtomPattern] = frozenset(patterns)
        self.instance = Instance()
        for pred, classes in sorted(self.patterns, key=_pattern_sort_key):
            self.instance.add(
                Atom(pred, [class_term(c) for c in classes])
            )
        # term id (in self.instance's id space) -> class int, decoded
        # lazily: pattern joins emit class ids without materializing
        # class terms per match.
        self._tid_class: Dict[int, int] = {}

    def class_of(self, tid: int) -> int:
        """The class int a term id of this cloud's instance stands for."""
        cls = self._tid_class.get(tid)
        if cls is None:
            cls = self._tid_class[tid] = self.instance.term_of(tid).name[1]
        return cls

    def __len__(self) -> int:
        return len(self.patterns)


_BODY_CACHE: Dict[Tuple, Optional[Tuple[Atom, ...]]] = {}
_BODY_CACHE_CAP = 1024
"""Saturation joins the same (rule body, constant-class map) pair once
per rule per fixpoint iteration; caching the rewrite spares the
per-join atom reconstruction and re-hashing."""


def _pattern_body(
    body: Sequence[Atom], constant_class: Dict[Constant, int]
) -> Optional[Tuple[Atom, ...]]:
    """``body`` with constants rewritten to their constant-class terms,
    or ``None`` when some constant has no class (then no assignment can
    exist)."""
    key = (tuple(body), tuple(sorted(constant_class.items())))
    if key in _BODY_CACHE:
        return _BODY_CACHE[key]
    out: Optional[List[Atom]] = []
    for atom in key[0]:
        terms: List = []
        for term in atom.terms:
            if isinstance(term, Variable):
                terms.append(term)
            elif isinstance(term, Constant) and term in constant_class:
                terms.append(class_term(constant_class[term]))
            else:
                terms = None
                break
        if terms is None:
            out = None
            break
        out.append(Atom(atom.predicate, terms))
    result = tuple(out) if out is not None else None
    if len(_BODY_CACHE) >= _BODY_CACHE_CAP:
        _BODY_CACHE.clear()
    _BODY_CACHE[key] = result
    return result


def pattern_homomorphisms(
    body: Sequence[Atom],
    cloud: Union[FrozenSet[AtomPattern], PatternCloud],
    constant_class: Dict[Constant, int],
    policy: str = "cost",
) -> Iterator[Dict[Variable, int]]:
    """All assignments of the body's variables to classes such that
    every body atom maps to a cloud pattern.

    The pattern-level analogue of
    :func:`repro.model.homomorphism.homomorphisms`; rule constants must
    land on their own constant class.  ``cloud`` may be a raw frozenset
    of patterns or an already-built :class:`PatternCloud`; ``policy``
    selects the planner's join ordering (class-term posting lists are
    real columnar statistics, so ``cost`` ordering probes selective
    constant columns first).  Assignments are yielded in the chosen
    plan's deterministic order (which differs from the naive
    reference's order — callers treat the result as a set), and the
    whole join runs in id space: class ints are decoded through the
    cloud's memo, never by materializing per-match Term objects.
    """
    index = cloud if isinstance(cloud, PatternCloud) else PatternCloud(cloud)
    pattern_body = _pattern_body(body, constant_class)
    if pattern_body is None:
        return
    instance = index.instance
    ordered = order_for(pattern_body, instance, policy=policy)
    exec_ = resolve_exec(instance, ordered)
    out = exec_.out
    class_of = index.class_of
    for match in exec_.run(instance, exec_.fresh_assign()):
        yield {var: class_of(match[slot]) for var, slot in out}


def naive_pattern_homomorphisms(
    body: Sequence[Atom],
    cloud: Union[FrozenSet[AtomPattern], PatternCloud],
    constant_class: Dict[Constant, int],
) -> Iterable[Dict[Variable, int]]:
    """The pre-index backtracking pattern matcher, retained as the
    reference implementation for equivalence tests and the benchmark
    baseline.  Yields the same assignments as
    :func:`pattern_homomorphisms` (possibly in a different order)."""
    if isinstance(cloud, PatternCloud):
        cloud = cloud.patterns
    by_predicate: Dict[Predicate, List[Tuple[int, ...]]] = {}
    for pred, classes in cloud:
        by_predicate.setdefault(pred, []).append(classes)
    for rows in by_predicate.values():
        rows.sort()
    ordered = sorted(
        body,
        key=lambda a: len(by_predicate.get(a.predicate, ())),
    )

    def extend(idx: int, assignment: Dict[Variable, int]):
        if idx == len(ordered):
            yield dict(assignment)
            return
        atom = ordered[idx]
        for classes in by_predicate.get(atom.predicate, ()):
            trial = dict(assignment)
            ok = True
            for term, cls in zip(atom.terms, classes):
                if isinstance(term, Variable):
                    bound = trial.get(term)
                    if bound is None:
                        trial[term] = cls
                    elif bound != cls:
                        ok = False
                        break
                elif isinstance(term, Constant):
                    if constant_class.get(term) != cls:
                        ok = False
                        break
                else:
                    ok = False
                    break
            if ok:
                yield from extend(idx + 1, trial)

    yield from extend(0, {})
