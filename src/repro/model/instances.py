"""Instances and databases, on an interned-id columnar fact core.

An :class:`Instance` is a set of facts (ground atoms over constants and
labelled nulls).  A *database* is an instance without nulls.  Instances
are mutable (the chase grows them) but expose a frozen snapshot for
hashing and comparison.

Internally an instance no longer stores :class:`~repro.model.atoms.Atom`
objects at all.  Every term and predicate is interned to a dense int in
a per-instance :class:`~repro.model.symbols.SymbolTable`, and each
relation is an append-only list of int-tuple *rows*, indexed two ways:

* by predicate id, giving each relation's rows in insertion order; and
* by ``(pred_id, position, term_id)``, the term-level hash indexes the
  join engine (:mod:`repro.model.joinplan`) probes with the ids already
  bound by outer join levels — int hashing and int equality instead of
  object ``__hash__``/``__eq__`` dispatch.

The physical side — symbol table, fact log, row lists, indexes, the
planner's column statistics — lives in a pluggable
:class:`~repro.storage.base.FactStore` (the ``store`` property).  The
default in-memory backend is byte-identical to the pre-storage-layer
core; the durable backend (:mod:`repro.storage.durable`) hydrates the
same structures lazily from append-only segment files, so a saved
instance reopens in O(symbols + facts) and pays row decoding only for
the predicates actually touched.  Instances built on either backend
are indistinguishable to every consumer: same ids, same rows, same
iteration order, same planner statistics.

Atoms are materialized lazily, only at API boundaries (``facts()``,
iteration, ``facts_with_predicate``, provenance, printing): the fact
log keeps one slot per row, filled with the original object on the
object-level ``add()`` path and decoded on demand for rows created by
the engines' int-level ``add_row()`` path.  Materialization never
changes ids, rows, or iteration order, so it is invisible to
determinism (the lazy-atom argument is spelled out in PERF.md).

All indexes are maintained incrementally by ``add()``/``add_row()``;
facts are never removed, so index rows are append-only and iterating a
length-bounded prefix of a row list is a zero-copy snapshot.  The
active domain is likewise maintained incrementally (a satellite of the
interned-core PR): ``active_domain()`` no longer rescans all facts.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

from .atoms import Atom, Predicate
from .schema import Schema
from .symbols import SymbolTable
from .terms import Constant, Null, Term

Row = Tuple[int, ...]


class Instance:
    """A set of facts, indexed by predicate and by term occurrence.

    The iteration order is insertion order (deterministic chases need a
    deterministic fact order).
    """

    __slots__ = (
        "_store",
        "_atoms",
        "_domain_cache",
        "_constants_cache",
        "_nulls_cache",
        "_snapshots",
        "_steps",
        "_plans",
        "_templates",
    )

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        symbols: Optional[SymbolTable] = None,
        store: Optional[FactStore] = None,
    ):
        # Function-level import: storage.base imports model submodules
        # for its structures, so a module-level import here would be
        # circular whichever package loads first.
        from ..storage.base import MemoryFactStore

        if store is not None:
            if symbols is not None:
                raise ValueError("pass symbols or store, not both")
            self._store = store
        else:
            self._store = MemoryFactStore(symbols)
        # Sparse ordinal -> Atom store: filled with the caller's object
        # on object-level adds, decoded on demand everywhere else (most
        # engine-created facts never materialize at all).
        self._atoms: Dict[int, Atom] = {}
        # Size-validated decode caches over the store's domain.
        self._domain_cache: Optional[FrozenSet[Term]] = None
        self._constants_cache: Optional[Tuple[int, FrozenSet[Constant]]] = None
        self._nulls_cache: Optional[Tuple[int, FrozenSet[Null]]] = None
        # Cached facts_with_predicate() tuples, invalidated by the
        # store's per-relation row counts (backend-agnostic).
        self._snapshots: Dict[int, Tuple[Atom, ...]] = {}
        # Join-engine resolution caches (managed by repro.model.joinplan
        # and repro.chase.triggers; they die with the instance, unlike
        # the old global caches).
        self._steps: Dict = {}
        self._plans: Dict = {}
        self._templates: Dict = {}
        if (
            symbols is None
            and store is None
            and type(self) is Instance
            and isinstance(facts, Instance)
            and type(facts) in (Instance, Database)
        ):
            # Columnar fast path: duplicate the int core wholesale
            # (same ids, same rows, same order) instead of re-encoding
            # every Atom — the chase engines copy their input database
            # this way.  Subclasses fall through to per-fact adds so
            # their add() checks still run.
            self._store = facts._store.clone()
            self._atoms = dict(facts._atoms)
            return
        for fact in facts:
            self.add(fact)

    @property
    def store(self) -> FactStore:
        """The physical backend holding this instance's rows (the
        :class:`~repro.storage.base.FactStore` API is the only
        sanctioned access to raw storage structures)."""
        return self._store

    # -- interning ---------------------------------------------------------

    def pred_id(self, predicate: Predicate) -> int:
        """The (interning) dense id of ``predicate``."""
        return self._store.pred_id(predicate)

    def pred_id_get(self, predicate: Predicate) -> Optional[int]:
        """The id of ``predicate`` if seen before, else ``None``."""
        return self._store.pred_id_get(predicate)

    def predicate_of(self, pid: int) -> Predicate:
        """Decode a predicate id."""
        return self._store.pred_objs[pid]

    def term_id(self, term: Term) -> int:
        """The (interning) dense id of ``term``."""
        return self._store.symbols.intern(term)

    def term_id_get(self, term: Term) -> Optional[int]:
        """The id of ``term`` if interned, else ``None``."""
        return self._store.symbols.get(term)

    def term_of(self, tid: int) -> Term:
        """Decode a term id."""
        return self._store.symbols.obj(tid)

    @property
    def symbols(self) -> SymbolTable:
        """The instance's symbol table (terms only; predicates are kept
        in a separate id space)."""
        return self._store.symbols

    def prepare_rules(self, rules: Iterable) -> None:
        """Pre-intern every predicate and constant of ``rules`` in a
        fixed order (rule-major, body before head, position order).

        Engines call this once, before round 1, so rule-symbol ids
        come in this fixed order whatever the first round discovers —
        the ids a checkpoint persists and a resumed run reuses.  On a
        reopened durable store this also hydrates every relation the
        rules mention, before any round runs.
        """
        from .terms import Variable

        store = self._store
        intern = store.symbols.intern
        for rule in rules:
            for atom in rule.body + rule.head:
                store.pred_id(atom.predicate)
                for term in atom.terms:
                    if not isinstance(term, Variable):
                        intern(term)

    # -- mutation ----------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Insert ``fact``; return True iff it was new.

        Raises ``ValueError`` for non-ground atoms — instances contain
        facts only.
        """
        if not fact.is_ground():
            raise ValueError(f"instances hold ground atoms only, got {fact}")
        store = self._store
        pid = store.pred_id(fact.predicate)
        intern = store.symbols.intern
        row = tuple(intern(t) for t in fact.terms)
        ordinal = store.add_row(pid, row)
        if ordinal is None:
            return False
        # Keep the caller's object so facts() hands back identical
        # Atoms for object-level insertions (and skips a decode).
        self._atoms[ordinal] = fact
        return True

    def add_row(self, pid: int, row: Row) -> Optional[int]:
        """Int-level insert: add ``row`` under predicate id ``pid``.

        Returns the new fact's ordinal, or ``None`` if it was already
        present.  The Atom is materialized lazily.  No groundness check
        — ids always denote ground terms.
        """
        return self._store.add_row(pid, row)

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return how many were new."""
        return sum(1 for f in facts if self.add(f))

    # -- materialization ---------------------------------------------------

    def atom_at(self, ordinal: int) -> Atom:
        """The fact at log position ``ordinal`` (materialized lazily)."""
        atom = self._atoms.get(ordinal)
        if atom is None:
            store = self._store
            pid, row = store.row_at(ordinal)
            obj = store.symbols.obj
            atom = Atom(store.pred_objs[pid], [obj(t) for t in row])
            self._atoms[ordinal] = atom
        return atom

    def row_at(self, ordinal: int) -> Tuple[int, Row]:
        """``(pred_id, row)`` at log position ``ordinal``."""
        return self._store.row_at(ordinal)

    def ordinal_of(self, fact: Atom) -> Optional[int]:
        """The log position of ``fact``, or ``None`` if absent."""
        store = self._store
        pid = store.pred_id_get(fact.predicate)
        if pid is None:
            return None
        get = store.symbols.get
        row: List[int] = []
        for term in fact.terms:
            tid = get(term)
            if tid is None:
                return None
            row.append(tid)
        return store.member_rows(pid).get(tuple(row))

    # -- queries ------------------------------------------------------------

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Atom):
            return False
        return self.ordinal_of(fact) is not None

    def __iter__(self) -> Iterator[Atom]:
        for ordinal in range(self._store.size()):
            yield self.atom_at(ordinal)

    def __len__(self) -> int:
        return self._store.size()

    def __eq__(self, other: object) -> bool:
        # Compares fact *sets* through the public surface, so instances
        # on different backends (or mid-hydration) compare correctly.
        if not isinstance(other, Instance):
            return NotImplemented
        return set(self) == set(other)

    def __repr__(self) -> str:
        if len(self) <= 8:
            inner = ", ".join(str(f) for f in self)
            return f"Instance({{{inner}}})"
        return f"Instance(<{len(self)} facts>)"

    def __reduce__(self):
        # Ship the fact tuple only; the receiving interpreter re-interns
        # every symbol and rebuilds the indexes (whose dict keys would
        # otherwise carry hashes from the sending interpreter).  Also
        # covers Database (``self.__class__`` re-runs its null check)
        # and durable-backed instances (facts() hydrates; the copy is
        # rebuilt on the default in-memory backend).
        return (self.__class__, (self.facts(),))

    def facts(self) -> Tuple[Atom, ...]:
        """All facts in insertion order."""
        atom_at = self.atom_at
        return tuple(atom_at(o) for o in range(self._store.size()))

    def facts_with_predicate(self, predicate: Predicate) -> Tuple[Atom, ...]:
        """The facts of one relation, in insertion order.

        The returned tuple is cached and only rebuilt after the
        relation has grown — validity is checked against the store's
        row count, which both backends answer without hydrating, so
        callers may hold on to it as an immutable snapshot.
        """
        store = self._store
        pid = store.pred_id_get(predicate)
        if pid is None:
            return ()
        count = store.count_rows(pid)
        if not count:
            return ()
        cached = self._snapshots.get(pid)
        if cached is None or len(cached) != count:
            atom_at = self.atom_at
            # Membership values are ordinals in insertion order.
            cached = tuple(
                atom_at(o) for o in store.member_rows(pid).values()
            )
            self._snapshots[pid] = cached
        return cached

    def count_with_predicate(self, predicate: Predicate) -> int:
        """How many facts one relation holds (no allocation — and no
        hydration on a reopened durable store)."""
        pid = self._store.pred_id_get(predicate)
        if pid is None:
            return 0
        return self._store.count_rows(pid)

    def facts_matching(
        self, predicate: Predicate, bindings: Mapping[int, Term]
    ) -> List[Atom]:
        """The facts of ``predicate`` carrying ``bindings[i]`` at every
        position ``i``, in insertion order.

        Probes the most selective term-level index among the bound
        positions and verifies only the *non-probed* positions; with
        every position bound this collapses to a single membership
        probe (mirroring the join engine's fully-bound fast path), and
        with empty ``bindings`` it is the whole relation.  Returns a
        fresh list the caller may keep.
        """
        store = self._store
        pid = store.pred_id_get(predicate)
        if pid is None:
            return []
        atom_at = self.atom_at
        if not bindings:
            return [atom_at(o) for o in store.member_rows(pid).values()]
        get = store.symbols.get
        encoded: List[Tuple[int, int]] = []
        for position, term in bindings.items():
            if not 0 <= position < predicate.arity:
                # No fact has an out-of-range position bound.
                return []
            tid = get(term)
            if tid is None:
                return []
            encoded.append((position, tid))
        member = store.member_rows(pid)
        if len(encoded) == predicate.arity:
            # Fully bound: the row is determined — one O(1) probe.
            probe = [0] * predicate.arity
            for position, tid in encoded:
                probe[position] = tid
            ordinal = member.get(tuple(probe))
            return [] if ordinal is None else [atom_at(ordinal)]
        best: Optional[List[Row]] = None
        best_position = -1
        for position, tid in encoded:
            rows = store.probe_rows(pid, position, tid)
            if not rows:
                return []
            if best is None or len(rows) < len(best):
                best = rows
                best_position = position
        assert best is not None
        rest = [(p, t) for p, t in encoded if p != best_position]
        if rest:
            matched = [
                row
                for row in best
                if all(row[p] == t for p, t in rest)
            ]
        else:
            matched = list(best)
        return [atom_at(member[row]) for row in matched]

    # -- join-engine accessors (zero-copy, via the store) ------------------

    def rows_of(self, pid: int) -> List[Row]:
        """Live insertion-ordered row list of one relation (do not
        mutate; may be empty and unregistered)."""
        return self._store.rows_of(pid)

    def probe_rows(self, pid: int, position: int, tid: int) -> List[Row]:
        """Live row list of the ``(pred_id, position, term_id)`` index
        (do not mutate)."""
        return self._store.probe_rows(pid, position, tid)

    def member_rows(self, pid: int) -> Dict[Row, int]:
        """Live ``row -> ordinal`` membership dict of one relation
        (do not mutate)."""
        return self._store.member_rows(pid)

    def distinct_at(self, pid: int, position: int) -> int:
        """How many distinct term ids occur at ``position`` of relation
        ``pid`` (maintained incrementally — the planner's per-column
        cardinality statistic; 0 for empty/unknown columns).  On a
        reopened store the counters come from the manifest, so the
        cost planner orders joins identically across backends."""
        return self._store.distinct_at(pid, position)

    def ordinals_of(self, pid: int) -> List[int]:
        """Insertion-ordered fact ordinals of one relation (a fresh
        list; membership values are ordinals in insertion order)."""
        return self._store.ordinals_of(pid)

    def predicates(self) -> FrozenSet[Predicate]:
        """The predicates with at least one fact."""
        store = self._store
        return frozenset(
            store.pred_objs[pid] for pid in store.nonempty_pids()
        )

    def schema(self) -> Schema:
        """The schema induced by the instance's facts."""
        return Schema(self.predicates())

    def active_domain(self) -> FrozenSet[Term]:
        """All terms occurring in some fact.

        Maintained incrementally by ``add_row`` — no rescan; the
        decoded frozenset is cached until the domain grows.
        """
        store = self._store
        cached = self._domain_cache
        if cached is not None and len(cached) == len(store.domain_ids):
            return cached
        obj = store.symbols.obj
        cached = frozenset(obj(tid) for tid in store.domain_ids)
        self._domain_cache = cached
        return cached

    def constants(self) -> FrozenSet[Constant]:
        """All constants occurring in some fact."""
        size = len(self._store.domain_ids)
        cached = self._constants_cache
        if cached is not None and cached[0] == size:
            return cached[1]
        out = frozenset(
            t for t in self.active_domain() if isinstance(t, Constant)
        )
        self._constants_cache = (size, out)
        return out

    def nulls(self) -> FrozenSet[Null]:
        """All labelled nulls occurring in some fact."""
        size = len(self._store.domain_ids)
        cached = self._nulls_cache
        if cached is not None and cached[0] == size:
            return cached[1]
        out = frozenset(
            t for t in self.active_domain() if isinstance(t, Null)
        )
        self._nulls_cache = (size, out)
        return out

    def is_database(self) -> bool:
        """True iff the instance is null-free."""
        return not self.nulls()

    def copy(self) -> "Instance":
        """An independent copy sharing no mutable state (cloned through
        the store API — works identically on either backend, always
        yielding an in-memory copy)."""
        return Instance(self)

    def save(self, path: str, overwrite: bool = False):
        """Persist this instance as a durable store directory at
        ``path`` (see :mod:`repro.storage.durable`); returns the
        :class:`~repro.storage.durable.StoreWriter` so callers may
        keep appending.  Reopen with
        :func:`repro.storage.open_instance`."""
        from ..storage.durable import save_store

        return save_store(self._store, path, overwrite=overwrite)

    def frozen(self) -> FrozenSet[Atom]:
        """A hashable snapshot of the fact set."""
        return frozenset(self)

    def snapshot(self, watermark: Optional[int] = None) -> "SnapshotInstance":
        """A consistent read-only view of this instance at a row-count
        watermark (default: the current size).

        Rows are append-only, so the view is zero-copy: it shares this
        instance's storage and bounds every read at the watermark.
        Create snapshots only while no writer is appending (e.g.
        between chase rounds / extension legs); once created, a
        snapshot may be queried from any number of threads while this
        instance keeps growing — that is the query server's
        mid-extension read consistency (see :mod:`repro.serve`).

        Snapshots reject mutation, and queries against them never
        intern new symbols into the shared tables (unseen constants
        resolve to snapshot-local ids matching nothing), so concurrent
        readers cannot perturb the writer's deterministic id
        assignment.
        """
        return SnapshotInstance(self, watermark)


class Database(Instance):
    """An instance that rejects nulls — the chase's input."""

    __slots__ = ()

    def add(self, fact: Atom) -> bool:
        if fact.nulls():
            raise ValueError(f"databases are null-free, got {fact}")
        return super().add(fact)

    def copy(self) -> "Database":
        return Database(self.facts())


class SnapshotInstance(Instance):
    """A read-only view of another instance at a row-count watermark.

    Shares the base instance's storage and decoded-atom cache
    zero-copy (rows are append-only, so everything below the watermark
    is immutable) but keeps **its own** plan caches: a snapshot's size
    never changes, so resolved query plans stay valid for its whole
    lifetime and are shared across every request pinned to it.

    Mutation raises ``TypeError``.  See :meth:`Instance.snapshot` for
    the creation-time quiescence requirement and the concurrency
    contract.
    """

    __slots__ = ("base",)

    def __init__(self, base: Instance, watermark: Optional[int] = None):
        from ..storage.snapshot import SnapshotFactStore

        if isinstance(base, SnapshotInstance):
            base = base.base
        super().__init__(store=SnapshotFactStore(base.store, watermark))
        self.base = base
        # Share the ordinal -> Atom decode cache: both sides only ever
        # insert (never delete), and every shared ordinal decodes to
        # the same fact, so concurrent lazy decoding is safe and work
        # done by one side benefits the other.
        self._atoms = base._atoms

    @property
    def watermark(self) -> int:
        """The row-count bound: this view is the base instance's first
        ``watermark`` facts."""
        return self._store.watermark

    def term_id(self, term: Term) -> int:
        # Never intern into the shared symbol table (see the store).
        return self._store.term_id(term)

    def add(self, fact: Atom) -> bool:
        raise TypeError(
            "snapshots are read-only: add facts to the base instance "
            "and take a fresh snapshot"
        )

    def add_row(self, pid: int, row: Row) -> Optional[int]:
        raise TypeError(
            "snapshots are read-only: add facts to the base instance "
            "and take a fresh snapshot"
        )

    def copy(self) -> Instance:
        """An independent, mutable in-memory instance holding exactly
        the facts below the watermark."""
        return Instance(store=self._store.clone())

    def save(self, path: str, overwrite: bool = False):
        raise TypeError(
            "snapshots cannot be saved directly; materialize with "
            ".copy() first"
        )

    def __reduce__(self):
        # Pickles as a plain in-memory Instance holding the bounded
        # prefix (view objects don't survive an interpreter hop).
        return (Instance, (self.facts(),))

    def __repr__(self) -> str:
        return f"SnapshotInstance(<{len(self)} facts @ watermark>)"


def union(*instances: Instance) -> Instance:
    """The union of several instances as a fresh :class:`Instance`."""
    out = Instance()
    for inst in instances:
        out.add_all(inst)
    return out
