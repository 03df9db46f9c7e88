"""The fact-store abstraction: where an instance's rows actually live.

:class:`~repro.model.instances.Instance` is the logical surface — facts,
predicates, domains, snapshots.  The *physical* side — the interned
symbol table, the append-only fact log, the per-predicate row lists and
``row -> ordinal`` membership dicts, the ``(pred_id, position, term_id)
-> rows`` term-level indexes, and the planner's per-column cardinality
counters — lives in a :class:`FactStore`.  Two backends share the
surface:

* :class:`MemoryFactStore` (this module) — plain dicts and lists, the
  default, byte-identical to the pre-storage-layer instance core.  All
  ``ensure_*`` hydration hooks are no-ops.
* :class:`~repro.storage.durable.DurableFactStore` — the same
  structures hydrated lazily, per predicate, from append-only
  ``array('q')`` segment files on disk.

Two invariants make the split invisible to the join engine:

1. **Structure objects are never replaced.**  ``index``,
   ``rows_by_pid``, ``member_by_pid`` and the log lists are created at
   construction and only ever *grown* (hydration mutates them in
   place), so :class:`~repro.model.joinplan.ResolvedStep` may bind
   their bound ``.get`` methods once and keep probing them for the
   instance's lifetime.
2. **Hydration happens at predicate-id resolution.**  Every consumer
   obtains a ``pid`` through ``pred_id``/``pred_id_get`` before
   touching pid-keyed structures; the durable backend hydrates there,
   so the pid-keyed accessors themselves stay hook-free and zero-copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..model.atoms import Predicate
from ..model.symbols import SymbolTable

Row = Tuple[int, ...]

_EMPTY_ROWS: List[Row] = []
_EMPTY_MEMBER: Dict[Row, int] = {}


class FactStore:
    """The physical half of an instance: symbols, rows, and indexes.

    Rows are **append-only**: a fact's (predicate, row) position never
    mutates or moves, which is what makes save/resume, incremental
    extension, and watermark snapshots (bounding every accessor to a
    row-count high-water mark) compose without copies or locks.

    This base class *is* the in-memory backend (see
    :data:`MemoryFactStore`); the durable backend
    (:class:`repro.storage.durable.DurableFactStore`, append-only
    segments + atomic manifest, written by ``Instance.save`` /
    ``chase --save`` and reopened with
    :func:`repro.storage.open_instance`) subclasses it and overrides
    the hydration hooks plus ``pred_id``/``pred_id_get``.  One store
    belongs to exactly one instance — stores are cloned, not shared.
    """

    kind = "memory"

    __slots__ = (
        "symbols",
        "pred_ids",
        "pred_objs",
        "log_pids",
        "log_rows",
        "member_by_pid",
        "rows_by_pid",
        "index",
        "pos_card",
        "domain_ids",
    )

    def __init__(self, symbols: Optional[SymbolTable] = None):
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.pred_ids: Dict[Predicate, int] = {}
        self.pred_objs: Dict[int, Predicate] = {}
        self.log_pids: List[int] = []
        self.log_rows: List[Row] = []
        self.member_by_pid: Dict[int, Dict[Row, int]] = {}
        self.rows_by_pid: Dict[int, List[Row]] = {}
        # (pred_id, position, term_id) -> rows carrying term_id there.
        self.index: Dict[Tuple[int, int, int], List[Row]] = {}
        # (pred_id, position) -> distinct term ids at that column (the
        # cost planner's cardinality statistic, see repro.query.planner).
        self.pos_card: Dict[Tuple[int, int], int] = {}
        # Active domain term ids in first-occurrence order.
        self.domain_ids: Dict[int, None] = {}

    # -- hydration hooks (no-ops for the in-memory backend) ----------------

    def ensure_pred(self, pid: int) -> None:
        """Make every pid-keyed structure of relation ``pid`` valid."""

    def ensure_all(self) -> None:
        """Make every structure fully resident (required before any
        mutation of a lazily opened store)."""

    def loaded(self) -> bool:
        """True iff every row is resident in the in-memory structures."""
        return True

    # -- interning ---------------------------------------------------------

    def pred_id(self, predicate: Predicate) -> int:
        """The (interning) dense id of ``predicate``."""
        pid = self.pred_ids.get(predicate)
        if pid is None:
            pid = len(self.pred_objs)
            while pid in self.pred_objs:  # primed tables may be sparse
                pid += 1
            self.pred_ids[predicate] = pid
            self.pred_objs[pid] = predicate
        return pid

    def pred_id_get(self, predicate: Predicate) -> Optional[int]:
        """The id of ``predicate`` if seen before, else ``None``."""
        return self.pred_ids.get(predicate)

    def predicate_of(self, pid: int) -> Predicate:
        """Decode a predicate id."""
        return self.pred_objs[pid]

    def prime_predicate(self, predicate: Predicate, pid: int) -> None:
        """Install a known predicate id (a reopened or copied store)."""
        known = self.pred_ids.get(predicate)
        if known is not None:
            if known != pid:
                raise ValueError(
                    f"{predicate} already has id {known}, not {pid}"
                )
            return
        self.pred_ids[predicate] = pid
        self.pred_objs[pid] = predicate

    # -- mutation ----------------------------------------------------------

    def add_row(self, pid: int, row: Row) -> Optional[int]:
        """Append ``row`` under predicate id ``pid``, maintaining every
        index incrementally.  Returns the new fact's ordinal, or
        ``None`` if the row was already present."""
        member = self.member_by_pid.get(pid)
        if member is None:
            member = self.member_by_pid[pid] = {}
            self.rows_by_pid[pid] = []
        if row in member:
            return None
        log_rows = self.log_rows
        ordinal = len(log_rows)
        member[row] = ordinal
        self.log_pids.append(pid)
        log_rows.append(row)
        self.rows_by_pid[pid].append(row)
        index_get = self.index.get
        index_set = self.index.__setitem__
        domain = self.domain_ids
        pos_card = self.pos_card
        position = 0
        for tid in row:
            key = (pid, position, tid)
            rows = index_get(key)
            if rows is None:
                index_set(key, [row])
                # A term already indexed somewhere is already in the
                # domain; only first-time index rows can introduce one.
                domain[tid] = None
                # First occurrence of tid at this column: one more
                # distinct value for the planner's cardinality stats.
                ckey = (pid, position)
                pos_card[ckey] = pos_card.get(ckey, 0) + 1
            else:
                rows.append(row)
            position += 1
        return ordinal

    # -- zero-copy accessors (pids resolved by the caller) -----------------

    def size(self) -> int:
        """How many facts the store holds (resident or not)."""
        return len(self.log_pids)

    def row_at(self, ordinal: int) -> Tuple[int, Row]:
        """``(pred_id, row)`` at log position ``ordinal``."""
        return self.log_pids[ordinal], self.log_rows[ordinal]

    def rows_of(self, pid: int) -> List[Row]:
        """Live insertion-ordered row list of one relation (do not
        mutate; may be empty and unregistered)."""
        return self.rows_by_pid.get(pid, _EMPTY_ROWS)

    def probe_rows(self, pid: int, position: int, tid: int) -> List[Row]:
        """Live row list of the ``(pred_id, position, term_id)`` index
        (do not mutate)."""
        return self.index.get((pid, position, tid), _EMPTY_ROWS)

    def member_rows(self, pid: int) -> Dict[Row, int]:
        """Live ``row -> ordinal`` membership dict of one relation
        (do not mutate)."""
        return self.member_by_pid.get(pid, _EMPTY_MEMBER)

    def ordinals_of(self, pid: int) -> List[int]:
        """Insertion-ordered fact ordinals of one relation (fresh list)."""
        return list(self.member_by_pid.get(pid, _EMPTY_MEMBER).values())

    def count_rows(self, pid: int) -> int:
        """How many rows relation ``pid`` holds (never hydrates)."""
        rows = self.rows_by_pid.get(pid)
        return len(rows) if rows else 0

    def distinct_at(self, pid: int, position: int) -> int:
        """Distinct term ids at ``position`` of relation ``pid`` (0 for
        empty/unknown columns)."""
        return self.pos_card.get((pid, position), 0)

    def nonempty_pids(self) -> List[int]:
        """Predicate ids with at least one row (never hydrates)."""
        return [pid for pid, rows in self.rows_by_pid.items() if rows]

    # -- copying -----------------------------------------------------------

    def clone(self) -> "FactStore":
        """An independent **in-memory** copy with identical ids, rows,
        and iteration order (the instance-copy fast path; a durable
        store hydrates fully first)."""
        self.ensure_all()
        out = FactStore.__new__(FactStore)
        out.symbols = self.symbols.clone()
        out.pred_ids = dict(self.pred_ids)
        out.pred_objs = dict(self.pred_objs)
        out.log_pids = list(self.log_pids)
        out.log_rows = list(self.log_rows)
        out.member_by_pid = {
            pid: dict(member) for pid, member in self.member_by_pid.items()
        }
        out.rows_by_pid = {
            pid: list(rows) for pid, rows in self.rows_by_pid.items()
        }
        out.index = {key: list(rows) for key, rows in self.index.items()}
        out.pos_card = dict(self.pos_card)
        out.domain_ids = dict(self.domain_ids)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{self.size()} facts>)"


#: The default backend is the base class itself; the alias makes call
#: sites say what they mean.
MemoryFactStore = FactStore
