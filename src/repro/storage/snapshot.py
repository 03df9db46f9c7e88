"""Watermark-bounded snapshot views over an append-only fact store.

The columnar core never mutates a row in place: the fact log, each
relation's row list, and every ``(pred_id, position, term_id)`` index
bucket only ever *append* (see :mod:`repro.storage.base`).  A
consistent read view of a growing instance therefore needs exactly one
number — a **row-count watermark** ``W``: the instance as it existed
when its fact log held ``W`` rows.  :class:`SnapshotFactStore` is a
:class:`~repro.storage.base.FactStore` whose every accessor honors
that bound, which is what lets the query server
(:mod:`repro.serve`) answer requests over an instance *while a chase
extension is appending to it* — readers pinned to a pre-extension
watermark can never observe a partial round.

How the bound is enforced
-------------------------

Within the fact log, within each relation's row list, and within each
index bucket, rows appear in strictly increasing ordinal order (they
are appended exactly when the fact is appended).  The number of rows
of a list that belong to the snapshot is therefore found by *binary
search* on the owning relation's ``row -> ordinal`` membership dict —
computed lazily on first touch of each list and cached, so a snapshot
costs O(1) to create and O(log rows) per distinct list touched.

What a reader gets back runs at list speed:

* an **index bucket** is a plain list, the bucket's prefix below the
  watermark, cut the first time the snapshot touches it;
* a **whole relation** is never copied: its view keeps the base row
  list and the bound, and the join engine indexes the base list below
  the bound itself (:meth:`SnapshotFactStore.fixed_rows`).

Concurrency contract (the GIL-safety rules)
-------------------------------------------

A snapshot may be read from any number of threads while one writer
thread appends to the base store, provided:

* the snapshot is **created at a quiescent point** — no write in
  flight (the server publishes a fresh snapshot only after an
  extension completes, under the ingest lock);
* reader code only performs dict ``.get``/``[]`` lookups and list
  indexing below a precomputed bound on the writer-shared structures —
  **never** iterates a dict the writer may be inserting into.  Every
  override below follows that rule (e.g. ``nonempty_pids`` walks the
  predicate-id list captured at creation, and ``domain_ids`` is
  rebuilt from the bounded log prefix rather than shared).

The one structure readers write is the symbol table's ``id -> text``
cache (:attr:`~repro.model.symbols.SymbolTable.texts`), which the base
and all its snapshots share.  Readers fill it without a lock:
inserting an int key into a dict is atomic under the GIL, and the text
is a pure function of the id, so racing readers store equal strings
and an entry never goes stale.

Interning is the one mutation a query could otherwise smuggle in:
resolving a plan for a query that mentions an unseen constant or
predicate would allocate a fresh id in the *shared* tables, perturbing
the writer's deterministic id assignment.  Snapshots therefore never
intern into the base: unknown symbols get snapshot-local **negative**
ids (real ids are non-negative, so a local id matches no stored row —
the correct semantics for a symbol the snapshot has never seen).
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..model.atoms import Predicate
from .base import _EMPTY_ROWS, FactStore, Row


def _bound(rows: List[Row], member: Dict[Row, int], watermark: int) -> int:
    """How many leading rows of ``rows`` have an ordinal below
    ``watermark``: a binary search, since ordinals increase along every
    row list.  Rows below the count never change, so it may be read
    while a writer appends."""
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        if member[rows[mid]] < watermark:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _BoundedRows:
    """One relation at the watermark, without a copy: the base store's
    live row list and ``n``, how many of its rows lie below the
    watermark.  ``len`` and iteration honor the bound; the join engine
    indexes ``rows`` below ``n`` itself (:meth:`SnapshotFactStore.
    fixed_rows`), so its scans run at list speed."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: List[Row], n: int):
        self.rows = rows
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Row]:
        return islice(self.rows, self.n)


class _BoundedMap:
    """A ``.get``-only view of one of the base store's row-list dicts
    at the watermark, caching what each key answers."""

    __slots__ = ("_source", "_member_by_pid", "_watermark", "_cache")

    def __init__(self, source: Dict, member_by_pid: Dict[int, Dict[Row, int]],
                 watermark: int):
        self._source = source
        self._member_by_pid = member_by_pid
        self._watermark = watermark
        self._cache: Dict = {}


class _RelationMap(_BoundedMap):
    """The ``rows_by_pid`` view: ``.get(pid)`` answers a
    :class:`_BoundedRows` for a relation nonempty at the watermark and
    the caller's default otherwise, exactly like a missing key."""

    __slots__ = ()

    def get(self, pid, default=None):
        view = self._cache.get(pid)
        if view is None:
            rows = self._source.get(pid)
            if rows is None:
                return default
            view = _BoundedRows(
                rows, _bound(rows, self._member_by_pid[pid], self._watermark)
            )
            self._cache[pid] = view
        return view if view.n else default


class _BucketMap(_BoundedMap):
    """The ``index`` view: ``.get(key)`` answers the bucket's rows below
    the watermark as a plain list, or the caller's default when there
    are none (so selectivity comparisons and emptiness checks see the
    watermark state).  A bucket is cut at the watermark the first time
    this snapshot touches it."""

    __slots__ = ()

    def get(self, key, default=None):
        rows = self._cache.get(key)
        if rows is None:
            raw = self._source.get(key)
            if raw is None:
                return default
            rows = raw[:_bound(raw, self._member_by_pid[key[0]],
                               self._watermark)]
            self._cache[key] = rows
        return rows or default


class _BoundedMemberMap:
    """The ``member_by_pid`` view: ``.get(pid)`` answers a lazily built
    :class:`_BoundedMember` for relations nonempty at the watermark and
    the caller's default otherwise (``ResolvedStep`` binds this
    ``.get`` once per cached plan, so it must behave like the dict it
    replaces)."""

    __slots__ = ("_store", "_cache")

    def __init__(self, store: "SnapshotFactStore"):
        self._store = store
        self._cache: Dict[int, "_BoundedMember"] = {}

    def get(self, pid, default=None):
        view = self._cache.get(pid)
        if view is None:
            store = self._store
            member = store.base.member_by_pid.get(pid)
            if member is None:
                return default
            rows = store.rows_by_pid.get(pid)
            if rows is None:
                return default
            view = _BoundedMember(member, rows, store.watermark)
            self._cache[pid] = view
        return view

    def __getitem__(self, pid) -> "_BoundedMember":
        view = self.get(pid)
        if view is None:
            raise KeyError(pid)
        return view


class _BoundedMember:
    """A watermark-bounded view of one relation's ``row -> ordinal``
    membership dict: lookups answer only rows whose ordinal is below
    the watermark; ``values()`` walks the bounded row list instead of
    iterating the (writer-shared) dict."""

    __slots__ = ("_member", "_rows", "_watermark")

    def __init__(self, member: Dict[Row, int], rows: _BoundedRows,
                 watermark: int):
        self._member = member
        self._rows = rows
        self._watermark = watermark

    def get(self, row, default=None):
        ordinal = self._member.get(row)
        if ordinal is None or ordinal >= self._watermark:
            return default
        return ordinal

    def __getitem__(self, row) -> int:
        ordinal = self.get(row)
        if ordinal is None:
            raise KeyError(row)
        return ordinal

    def __contains__(self, row) -> bool:
        return self.get(row) is not None

    def __len__(self) -> int:
        return len(self._rows)

    def values(self) -> List[int]:
        member = self._member
        return [member[row] for row in self._rows]


class SnapshotFactStore(FactStore):
    """A read-only, watermark-bounded view of another store.

    Shares the base store's structures zero-copy (symbol table, fact
    log, row lists, indexes) and bounds every accessor at the
    creation-time row count.  Mutation raises; unseen predicates and
    terms resolve to snapshot-local negative ids (matching nothing)
    instead of interning into the shared tables.

    Create one only at a quiescent point — while no writer is
    appending — typically via :meth:`Instance.snapshot
    <repro.model.instances.Instance.snapshot>`.  Once created it may
    be read concurrently with later writes to the base store.
    """

    kind = "snapshot"

    __slots__ = ("base", "watermark", "_pids_at_creation",
                 "_domain_at", "_local_ids", "_local_lock")

    def __init__(self, base: FactStore, watermark: Optional[int] = None):
        if isinstance(base, SnapshotFactStore):
            if watermark is None:
                watermark = base.watermark
            elif watermark > base.watermark:
                raise ValueError(
                    f"watermark {watermark} exceeds the base snapshot's "
                    f"{base.watermark}"
                )
            base = base.base
        base.ensure_all()
        size = base.size()
        if watermark is None:
            watermark = size
        if not 0 <= watermark <= size:
            raise ValueError(
                f"watermark {watermark} out of range for a store of "
                f"{size} facts"
            )
        self.base = base
        self.watermark = watermark
        # Shared read-only (for this view) structures.
        self.symbols = base.symbols
        self.pred_ids = base.pred_ids
        self.pred_objs = base.pred_objs
        self.log_pids = base.log_pids
        self.log_rows = base.log_rows
        self.pos_card = base.pos_card  # advisory planner stats; see below
        # Captured at the (quiescent) creation point: every relation
        # that could possibly be nonempty at the watermark.  Readers
        # never iterate the live dicts the writer inserts into.
        self._pids_at_creation: Tuple[int, ...] = tuple(base.rows_by_pid)
        self.rows_by_pid = _RelationMap(
            base.rows_by_pid, base.member_by_pid, watermark
        )
        self.index = _BucketMap(base.index, base.member_by_pid, watermark)
        self.member_by_pid = _BoundedMemberMap(self)
        # NB: ``domain_ids`` is a property on this class (shadowing the
        # inherited slot) — rebuilt lazily from the bounded log prefix.
        self._domain_at: Optional[Dict[int, None]] = None
        # term/predicate -> snapshot-local negative id, for symbols the
        # base has never interned (they can match no stored row).
        self._local_ids: Dict[object, int] = {}
        self._local_lock = threading.Lock()

    # -- hydration hooks ----------------------------------------------------

    def ensure_pred(self, pid: int) -> None:
        pass

    def ensure_all(self) -> None:
        pass

    def loaded(self) -> bool:
        return True

    # -- interning (never into the shared tables) ---------------------------

    def _local_id(self, obj: object) -> int:
        with self._local_lock:
            lid = self._local_ids.get(obj)
            if lid is None:
                lid = -len(self._local_ids) - 1
                self._local_ids[obj] = lid
            return lid

    def pred_id(self, predicate: Predicate) -> int:
        pid = self.pred_ids.get(predicate)
        if pid is not None:
            return pid
        return self._local_id(predicate)

    def pred_id_get(self, predicate: Predicate) -> Optional[int]:
        return self.pred_ids.get(predicate)

    def term_id(self, term: object) -> int:
        """The id of ``term`` without interning: the base's id when it
        has one, else a snapshot-local negative id."""
        tid = self.symbols.get(term)
        if tid is not None:
            return tid
        return self._local_id(term)

    def prime_predicate(self, predicate: Predicate, pid: int) -> None:
        raise TypeError("snapshot stores are read-only")

    # -- mutation (refused) --------------------------------------------------

    def add_row(self, pid: int, row: Row) -> Optional[int]:
        raise TypeError(
            "snapshot stores are read-only: add facts to the base "
            "instance and take a fresh snapshot"
        )

    # -- bounded accessors ---------------------------------------------------

    def size(self) -> int:
        return self.watermark

    def row_at(self, ordinal: int) -> Tuple[int, Row]:
        if ordinal >= self.watermark:
            raise IndexError(
                f"ordinal {ordinal} is beyond the snapshot watermark "
                f"{self.watermark}"
            )
        return self.log_pids[ordinal], self.log_rows[ordinal]

    def rows_of(self, pid: int) -> List[Row]:
        return self.rows_by_pid.get(pid, _EMPTY_ROWS)

    def fixed_rows(self, pid: int) -> Tuple[List[Row], int]:
        view = self.rows_by_pid.get(pid)
        if view is None:
            return _EMPTY_ROWS, 0
        return view.rows, view.n

    def probe_rows(self, pid: int, position: int, tid: int) -> List[Row]:
        return self.index.get((pid, position, tid), _EMPTY_ROWS)

    def member_rows(self, pid: int):
        return self.member_by_pid.get(pid, _EMPTY_MEMBER_VIEW)

    def ordinals_of(self, pid: int) -> List[int]:
        return self.member_rows(pid).values()

    def count_rows(self, pid: int) -> int:
        rows = self.rows_by_pid.get(pid)
        return len(rows) if rows else 0

    def distinct_at(self, pid: int, position: int) -> int:
        # Advisory: the base's live counter, which may run slightly
        # ahead of the watermark mid-extension.  It is only consumed by
        # the cost planner's join-order choice, so it can never change
        # an answer set — only the enumeration order.
        return self.pos_card.get((pid, position), 0)

    def nonempty_pids(self) -> List[int]:
        count = self.count_rows
        return [pid for pid in self._pids_at_creation if count(pid)]

    @property
    def domain_ids(self) -> Dict[int, None]:
        """Active-domain term ids at the watermark, in first-occurrence
        order — rebuilt from the bounded log prefix (the base's live
        domain dict cannot be iterated while a writer inserts)."""
        domain = self._domain_at
        if domain is None:
            domain = {}
            log_rows = self.log_rows
            for ordinal in range(self.watermark):
                for tid in log_rows[ordinal]:
                    domain[tid] = None
            self._domain_at = domain
        return domain

    def clone(self) -> FactStore:
        """An independent in-memory store holding exactly the bounded
        prefix (same pids, same rows, same order)."""
        out = FactStore()
        out.symbols = self.symbols.clone()
        seen_pids: Dict[int, None] = {}
        for ordinal in range(self.watermark):
            seen_pids[self.log_pids[ordinal]] = None
        for pid in seen_pids:
            out.prime_predicate(self.pred_objs[pid], pid)
        for ordinal in range(self.watermark):
            out.add_row(self.log_pids[ordinal], self.log_rows[ordinal])
        return out

    def __repr__(self) -> str:
        return (
            f"SnapshotFactStore(<{self.watermark} of "
            f"{len(self.log_pids)} facts>)"
        )


class _EmptyMember:
    """The bounded-member view of a relation absent at the watermark."""

    __slots__ = ()

    def get(self, row, default=None):
        return default

    def __contains__(self, row) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def values(self) -> List[int]:
        return []


_EMPTY_MEMBER_VIEW = _EmptyMember()
