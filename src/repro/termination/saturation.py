"""Type saturation — the fixpoint core of the guarded decider (Thm 4).

For guarded Σ, the atoms derivable over a bag's terms depend only on
the bag's type.  Saturation computes, for every reachable type, the
full cloud of derivable patterns, accounting for

* *local* derivations — rule bodies mapping into the bag's cloud whose
  head atoms mention no existential variable land on the bag's own
  terms; and
* *up-propagation* — a child bag's subtree can derive atoms purely
  over terms the child inherited, which are therefore atoms over the
  parent's terms too.

The fixpoint runs as a worklist that repeats no work — semi-naive
evaluation in the sense of Bancilhon & Ramakrishnan ("An Amateur's
Introduction to Recursive Query Processing Strategies", SIGMOD 1986):

1. a type gets a pass only when it is new or the cloud of a type it
   has built as a child grew since its last pass;
2. within a pass, a rule is joined again only when the cloud's atoms
   of one of its body predicates changed — clouds only grow, so equal
   per-predicate atom counts mean equal atoms and the same join, in
   the same order;
3. each (type, rule, assignment) child is built once per state of the
   parent's cloud, and its atoms are lifted into the parent again only
   when the child's cloud grew;
4. :meth:`TypeAnalysis.child_edges` reads the joins and children of a
   type's last pass instead of computing them again.

Every skipped step is one whose result is already in place, so the
sequence of cloud changes and type registrations is exactly that of a
round-robin sweep over every type until nothing changes: the same
table and the same transition graph, with fewer joins.

The paper obtains the 2EXPTIME upper bound with an alternating
algorithm over this exact (doubly exponential) type space; alternation
over a finite space is equivalent to the memoized least fixpoint
computed here (see DESIGN.md, substitution ledger).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..chase.critical import (
    CRITICAL_CONSTANT,
    ONE_CONSTANT,
    ONE_PREDICATE,
    ZERO_CONSTANT,
    ZERO_PREDICATE,
)
from ..chase.scheduler import SchedulerSpec, resolve_scheduler
from ..errors import BudgetExceededError, UnsupportedClassError
from ..model import (
    Constant,
    Instance,
    Schema,
    TGD,
    Variable,
    program_constants,
    validate_program,
)
from .abstraction import (
    FRESH,
    AtomPattern,
    BagType,
    PatternCloud,
    atom_to_pattern,
    naive_pattern_homomorphisms,
    pattern_homomorphisms,
)

DEFAULT_MAX_TYPES = 20_000

PATTERN_ENGINES = ("indexed", "naive")
"""Pattern-join engines: ``indexed`` runs bodies through the compiled
class-indexed join plans of :mod:`repro.termination.abstraction`;
``naive`` is the retained backtracking scan, kept selectable for
equivalence tests and as the benchmark baseline."""


class ChildEdge:
    """A bag-creating rule application, as a type-level transition.

    ``flow`` maps each *canonical* null class of the child to its
    source: a parent class id, or :data:`FRESH` for classes created by
    existential variables.  ``trigger_o`` / ``trigger_so`` are the
    parent classes read by the trigger under the oblivious /
    semi-oblivious identification policies.
    """

    __slots__ = ("source", "target", "rule", "rule_index", "flow",
                 "trigger_o", "trigger_so")

    def __init__(
        self,
        source: BagType,
        target: BagType,
        rule: TGD,
        rule_index: int,
        flow: Dict[int, int],
        trigger_o: FrozenSet[int],
        trigger_so: FrozenSet[int],
    ):
        self.source = source
        self.target = target
        self.rule = rule
        self.rule_index = rule_index
        self.flow = flow
        self.trigger_o = trigger_o
        self.trigger_so = trigger_so

    def trigger_classes(self, variant: str) -> FrozenSet[int]:
        """The parent classes the trigger reads under ``variant``.

        The restricted chase identifies triggers obliviously, so it
        shares the oblivious trigger footprint.
        """
        from ..chase.triggers import ChaseVariant

        if variant == ChaseVariant.SEMI_OBLIVIOUS:
            return self.trigger_so
        return self.trigger_o

    def dedup_key(self) -> Tuple:
        return (
            self.rule_index,
            self.target,
            tuple(sorted(self.flow.items())),
            self.trigger_o,
            self.trigger_so,
        )

    def __repr__(self) -> str:
        label = self.rule.label or f"rule{self.rule_index}"
        return f"ChildEdge({label}: {self.source!r} -> {self.target!r})"


class _TypeMemo:
    """What the worklist keeps about one type between its passes.

    ``join_keys[r]`` holds the per-body-predicate atom counts of the
    cloud that rule ``r`` was last joined against, and ``joins[r]``
    that join's assignments.  ``children`` maps ``(r, body image)`` to
    ``[parent cloud size at build, edge, child cloud size at the last
    lift]``.
    """

    __slots__ = ("join_keys", "joins", "children")

    def __init__(self, num_rules: int):
        self.join_keys: List[Optional[Tuple]] = [None] * num_rules
        self.joins: List[List[Dict[Variable, int]]] = [
            [] for _ in range(num_rules)
        ]
        self.children: Dict[Tuple, list] = {}


class TypeAnalysis:
    """Saturated type space of a guarded program over its critical
    instance (plain or *standard*, per Theorem 4)."""

    def __init__(
        self,
        rules: Sequence[TGD],
        standard: bool = False,
        max_types: int = DEFAULT_MAX_TYPES,
        database: Optional[Instance] = None,
        pattern_engine: str = "indexed",
        order_policy: str = "cost",
        scheduler: SchedulerSpec = None,
        workers: Optional[int] = None,
        budget=None,
    ):
        """Analyse ``rules`` over the critical instance (default), the
        *standard* critical instance (``standard=True``), or a concrete
        ``database`` root — the latter turns saturation into the
        guarded atom-entailment engine of :mod:`repro.entailment`.

        ``pattern_engine`` selects how rule bodies are joined against
        clouds (see :data:`PATTERN_ENGINES`); both engines compute the
        same assignment sets.  ``order_policy`` selects the planner's
        join ordering for the ``indexed`` engine
        (:data:`repro.query.planner.ORDER_POLICIES`; ``cost`` plans
        from the cloud's columnar statistics, ``heuristic`` is the
        retained PR 1 ordering — assignment sets are identical).

        ``scheduler`` / ``workers`` batch the body-vs-cloud joins of
        each saturation iteration across rules
        (:mod:`repro.chase.scheduler`): the joins of one iteration all
        read the same immutable cloud snapshot, so they are executor-
        independent, and their results are applied serially in rule
        order — the saturated table, discovered types, and edge order
        are identical under every executor.  Call :meth:`close` (or
        use ``decide_guarded``, which does) to release pools created
        here."""
        rules = list(rules)
        validate_program(rules)
        for rule in rules:
            if not rule.is_guarded():
                raise UnsupportedClassError(
                    f"type analysis requires guarded rules; offending: {rule}"
                )
        if standard and database is not None:
            raise ValueError("standard and database roots are exclusive")
        if pattern_engine not in PATTERN_ENGINES:
            raise ValueError(
                f"unknown pattern engine {pattern_engine!r}; "
                f"expected one of {PATTERN_ENGINES}"
            )
        self.rules = rules
        self.standard = standard
        self.database = database
        self.max_types = max_types
        if order_policy not in ("cost", "heuristic"):
            raise ValueError(f"unknown order policy {order_policy!r}")
        self.pattern_engine = pattern_engine
        self.order_policy = order_policy
        if pattern_engine == "indexed":
            def _homs(body, snapshot, constant_class):
                return pattern_homomorphisms(
                    body, snapshot, constant_class, policy=order_policy
                )

            self._pattern_homs = _homs
        else:
            self._pattern_homs = naive_pattern_homomorphisms
        # How many body-vs-cloud joins saturation executed — surfaced
        # through TransitionGraph.stats() for certificates/benchmarks.
        self.pattern_joins = 0
        # ``budget`` governs saturation (deadline / memory ceiling /
        # cancellation on top of ``max_types``); checked once per
        # fixpoint pass over a bag type.
        self.budget = budget
        # A rule's join reads only the atoms of its body predicates.
        self._body_predicates: List[Tuple] = [
            tuple(dict.fromkeys(atom.predicate for atom in rule.body))
            for rule in rules
        ]
        constants: Set[Constant] = set(program_constants(rules))
        schema = Schema.from_rules(rules)
        if database is not None:
            constants |= set(database.constants())
            if database.nulls():
                raise ValueError("the root database must be null-free")
            schema = schema.merge(database.schema())
        else:
            constants.add(CRITICAL_CONSTANT)
        if standard:
            constants |= {ZERO_CONSTANT, ONE_CONSTANT}
            schema = schema.merge(Schema([ZERO_PREDICATE, ONE_PREDICATE]))
        self.schema = schema
        self.constants: Tuple[Constant, ...] = tuple(sorted(constants))
        self.constant_class: Dict[Constant, int] = {
            c: i for i, c in enumerate(self.constants)
        }
        self.num_constants = len(self.constants)
        self.root = self._root_type()
        # Saturated cloud per creation type; grows monotonically.
        self.table: Dict[BagType, FrozenSet[AtomPattern]] = {}
        # The worklist: per-type memos, the types each type was built
        # as a child of, and the types due a pass.
        self._memo: Dict[BagType, _TypeMemo] = {}
        self._parents: Dict[BagType, Set[BagType]] = {}
        self._dirty: Set[BagType] = set()
        self._saturated = False
        # The scheduler (and its worker pool) is resolved *last*: every
        # validation above may raise, and a pool spawned before a raise
        # would be stranded — the caller never gets an object to close.
        self._scheduler, self._owns_scheduler = resolve_scheduler(
            scheduler, workers
        )

    def close(self) -> None:
        """Release any executor pools this analysis created."""
        if self._owns_scheduler:
            self._scheduler.close()

    # -- construction ---------------------------------------------------

    def _root_type(self) -> BagType:
        """The root bag: the critical instance (all facts over the
        constants) or the supplied database."""
        cloud: List[AtomPattern] = []
        if self.database is not None:
            for fact in self.database:
                cloud.append(
                    (
                        fact.predicate,
                        tuple(self.constant_class[t] for t in fact.terms),
                    )
                )
            return BagType(self.num_constants, 0, cloud)
        for pred in self.schema:
            for combo in itertools.product(
                range(self.num_constants), repeat=pred.arity
            ):
                cloud.append((pred, tuple(combo)))
        return BagType(self.num_constants, 0, cloud)

    def saturate(self) -> None:
        """Run the global least fixpoint; idempotent.

        One saturation round is one worklist generation: a sweep, in
        registration order, over the types registered before it began,
        giving a pass to each type that is new or whose children's
        clouds grew.  The attached ``budget`` is checked before every
        type pass and charged one round per generation, so its
        ``max_rounds`` counts generations.

        Raises :class:`~repro.errors.BudgetExceededError` when the type
        space outgrows ``max_types`` or the attached ``budget`` trips
        (deadline, memory, cancellation); the table is left in a
        consistent (if unsaturated) state either way.
        """
        if self._saturated:
            return
        budget = self.budget
        if budget is not None:
            budget.start()
        if self.root not in self.table:
            self.table[self.root] = self.root.cloud
            self._dirty.add(self.root)
        while self._dirty:
            for bag_type in list(self.table):
                if bag_type not in self._dirty:
                    continue
                if budget is not None:
                    budget.raise_if_exceeded(facts=len(self.table))
                try:
                    new_cloud = self._saturate_one(bag_type)
                except BaseException:
                    # The memo ran ahead of the table; start over.
                    self._memo.pop(bag_type, None)
                    raise
                self._dirty.discard(bag_type)
                if len(new_cloud) != len(self.table[bag_type]):
                    self.table[bag_type] = new_cloud
                    self._dirty.update(self._parents.get(bag_type, ()))
            if budget is not None:
                budget.note_round()
        self._saturated = True

    def _register(self, bag_type: BagType) -> None:
        if bag_type not in self.table:
            if len(self.table) >= self.max_types:
                raise BudgetExceededError(
                    f"type budget exhausted ({self.max_types} types); the "
                    "guarded procedure is 2EXPTIME-complete — raise "
                    "max_types if this input is expected to be this large",
                    stop_reason="step_budget",
                    stats={"types": len(self.table)},
                )
            self.table[bag_type] = bag_type.cloud
            self._dirty.add(bag_type)

    def _snapshot(self, cloud: FrozenSet[AtomPattern]):
        """The pattern-join input for the configured engine: the
        class-indexed form for ``indexed``, the raw frozenset for
        ``naive``."""
        if self.pattern_engine == "indexed":
            return PatternCloud(cloud)
        return cloud

    def _joined_assignments(
        self,
        indexed_rules: Sequence[Tuple[int, TGD]],
        cloud: FrozenSet[AtomPattern],
    ) -> List[List[Dict[Variable, int]]]:
        """Body-vs-cloud assignments for each listed rule, in listing
        order — one batched join pass over an immutable cloud.

        The joins are pure reads of the snapshot, so the configured
        scheduler may run them in any interleaving; results are
        returned (and applied by the callers) in rule order, keeping
        saturation byte-identical across executors.
        """
        self.pattern_joins += len(indexed_rules)
        scheduler = self._scheduler
        if scheduler.kind == "process" and len(indexed_rules) > 1:
            payloads = [
                (
                    [rule.body for _, rule in chunk],
                    cloud,
                    self.constant_class,
                    self.pattern_engine,
                    self.order_policy,
                )
                for chunk in _chunk_rules(
                    list(indexed_rules), scheduler.workers
                )
            ]
            out: List[List[Dict[Variable, int]]] = []
            for chunk_result in scheduler.map(
                _pattern_join_remote, payloads
            ):
                out.extend(chunk_result)
            return out
        snapshot = self._snapshot(cloud)
        homs = self._pattern_homs
        constant_class = self.constant_class
        return scheduler.map(
            lambda pair: list(homs(pair[1].body, snapshot, constant_class)),
            list(indexed_rules),
        )

    def _saturate_one(self, bag_type: BagType) -> FrozenSet[AtomPattern]:
        """One saturation pass for a single type, against the current
        global table.  Registers newly discovered child types."""
        memo = self._memo.get(bag_type)
        if memo is None:
            memo = self._memo[bag_type] = _TypeMemo(len(self.rules))
        cloud: Set[AtomPattern] = set(self.table[bag_type])
        while True:
            before = len(cloud)
            # Rules join against the iteration-start cloud (additions
            # made while assignments are applied become visible next
            # iteration, never mid-enumeration) — and only the rules
            # whose body predicates gained atoms since their last join.
            # The joins read only that snapshot, so the scheduler may
            # batch them; the apply pass below stays serial in
            # rule-major assignment order.
            counts = Counter(pred for pred, _ in cloud)
            stale: List[Tuple[int, TGD]] = []
            for rule_index, rule in enumerate(self.rules):
                key = tuple(
                    counts[p] for p in self._body_predicates[rule_index]
                )
                if key != memo.join_keys[rule_index]:
                    memo.join_keys[rule_index] = key
                    stale.append((rule_index, rule))
            if stale:
                assignment_lists = self._joined_assignments(
                    stale, frozenset(cloud)
                )
                for (rule_index, _), assignments in zip(
                    stale, assignment_lists
                ):
                    memo.joins[rule_index] = assignments
            rejoined = {rule_index for rule_index, _ in stale}
            for rule_index, rule in enumerate(self.rules):
                # An assignment joined before was applied before.
                fresh = rule_index in rejoined
                creates = bool(rule.existential_variables)
                if not (fresh or creates):
                    continue
                for assignment in memo.joins[rule_index]:
                    if fresh:
                        self._apply_local(rule, assignment, cloud)
                    if creates:
                        self._child(
                            bag_type, memo, cloud, rule_index, rule,
                            assignment,
                        )
            if len(cloud) == before:
                return frozenset(cloud)

    def _child(
        self,
        bag_type: BagType,
        memo: _TypeMemo,
        cloud: Set[AtomPattern],
        rule_index: int,
        rule: TGD,
        assignment: Dict[Variable, int],
    ) -> None:
        """Build the child ``rule`` creates under ``assignment`` unless
        it was built at this size of the (only growing) cloud, register
        it, and lift its atoms unless its cloud is as last lifted."""
        key = _child_key(rule_index, rule, assignment)
        entry = memo.children.get(key)
        if entry is None or entry[0] != len(cloud):
            edge = self._make_child(
                bag_type, cloud, rule, rule_index, assignment
            )
            self._register(edge.target)
            self._parents.setdefault(edge.target, set()).add(bag_type)
            entry = memo.children[key] = [len(cloud), edge, None]
        edge = entry[1]
        lifted = len(self.table[edge.target])
        if entry[2] != lifted:
            entry[2] = lifted
            self._lift_child_atoms(edge, cloud)

    def _apply_local(
        self,
        rule: TGD,
        assignment: Dict[Variable, int],
        cloud: Set[AtomPattern],
    ) -> None:
        """Add head atoms free of existential variables to ``cloud``."""
        for atom in rule.head:
            if atom.variables() & rule.existential_variables:
                continue
            cloud.add(
                atom_to_pattern(atom, assignment, self.constant_class)
            )

    def _make_child(
        self,
        parent: BagType,
        parent_cloud: Iterable[AtomPattern],
        rule: TGD,
        rule_index: int,
        assignment: Dict[Variable, int],
    ) -> ChildEdge:
        """The type-level child bag created by applying ``rule`` under
        ``assignment`` to a bag whose cloud currently is
        ``parent_cloud`` (iterated once; a live set is fine)."""
        g = self.num_constants
        inherited = sorted(
            {assignment[v] for v in rule.frontier if assignment[v] >= g}
        )
        inherit_map = {old: g + i for i, old in enumerate(inherited)}
        existentials = sorted(rule.existential_variables)
        child_assignment: Dict[Variable, int] = {}
        for var in rule.frontier:
            cls = assignment[var]
            child_assignment[var] = inherit_map.get(cls, cls)
        flow_raw: List[int] = list(inherited)
        for offset, var in enumerate(existentials):
            child_assignment[var] = g + len(inherited) + offset
            flow_raw.append(FRESH)
        raw_cloud: Set[AtomPattern] = set()
        for atom in rule.head:
            raw_cloud.add(
                atom_to_pattern(atom, child_assignment, self.constant_class)
            )
        # Inherit every parent atom lying entirely over inherited terms.
        inherited_set = set(inherit_map)
        for pred, classes in parent_cloud:
            if all(c < g or c in inherited_set for c in classes):
                raw_cloud.add(
                    (pred, tuple(inherit_map.get(c, c) for c in classes))
                )
        child = BagType(g, len(flow_raw), raw_cloud)
        flow: Dict[int, int] = {}
        for i, source in enumerate(flow_raw):
            flow[child.canonical_map[i]] = source
        trigger_o = frozenset(assignment[v] for v in rule.body_variables)
        trigger_so = frozenset(assignment[v] for v in rule.frontier)
        return ChildEdge(
            parent, child, rule, rule_index, flow, trigger_o, trigger_so
        )

    def _lift_child_atoms(
        self, edge: ChildEdge, cloud: Set[AtomPattern]
    ) -> None:
        """Up-propagation: atoms of the child's saturated cloud lying
        entirely over inherited (or constant) classes are atoms over
        the parent's terms."""
        child_cloud = self.table[edge.target]
        g = self.num_constants
        back = {
            child_cls: parent_cls
            for child_cls, parent_cls in edge.flow.items()
            if parent_cls != FRESH
        }
        for pred, classes in child_cloud:
            mapped: List[int] = []
            ok = True
            for c in classes:
                if c < g:
                    mapped.append(c)
                else:
                    source = back.get(c)
                    if source is None:
                        ok = False
                        break
                    mapped.append(source)
            if ok:
                cloud.add((pred, tuple(mapped)))

    # -- post-saturation queries ----------------------------------------

    def saturated_cloud(self, bag_type: BagType) -> FrozenSet[AtomPattern]:
        """The saturated cloud of ``bag_type`` (must be registered)."""
        self.saturate()
        return self.table[bag_type]

    def child_edges(self, bag_type: BagType) -> List[ChildEdge]:
        """All deduplicated bag-creating transitions out of a type, in
        join order: the children its last pass built against its
        saturated cloud."""
        self.saturate()
        memo = self._memo[bag_type]
        seen: Set[Tuple] = set()
        edges: List[ChildEdge] = []
        for rule_index, rule in enumerate(self.rules):
            if not rule.existential_variables:
                continue
            for assignment in memo.joins[rule_index]:
                edge = memo.children[
                    _child_key(rule_index, rule, assignment)
                ][1]
                key = edge.dedup_key()
                if key not in seen:
                    seen.add(key)
                    edges.append(edge)
        return edges

    def type_count(self) -> int:
        """How many types saturation discovered."""
        self.saturate()
        return len(self.table)


def _child_key(
    rule_index: int, rule: TGD, assignment: Dict[Variable, int]
) -> Tuple:
    """A (rule, assignment) pair's key in a type's child memo."""
    return (
        rule_index,
        tuple(assignment[v] for v in rule.body_variables_sorted),
    )


# -- process-executor plumbing ---------------------------------------------


def _chunk_rules(
    indexed_rules: List[Tuple[int, TGD]], chunks: int
) -> List[List[Tuple[int, TGD]]]:
    """Contiguous, order-preserving near-equal runs of rules."""
    chunks = max(1, min(chunks, len(indexed_rules)))
    size, extra = divmod(len(indexed_rules), chunks)
    out: List[List[Tuple[int, TGD]]] = []
    start = 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        out.append(indexed_rules[start:stop])
        start = stop
    return out


def _pattern_join_remote(payload) -> List[List[Dict[Variable, int]]]:
    """Worker-side pattern joins for one chunk of rule bodies.

    Module-level for picklability.  The cloud ships as its raw
    frozenset (patterns are ``(Predicate, class-tuple)`` pairs, which
    re-intern on arrival); the worker builds its own class index, which
    amortizes over the whole chunk.
    """
    bodies, cloud, constant_class, engine, order_policy = payload
    if engine == "indexed":
        snapshot = PatternCloud(cloud)
        return [
            list(pattern_homomorphisms(
                body, snapshot, constant_class, policy=order_policy
            ))
            for body in bodies
        ]
    return [
        list(naive_pattern_homomorphisms(body, cloud, constant_class))
        for body in bodies
    ]
