"""Interned symbol tables: dense integer ids for terms and predicates.

The columnar fact core (:mod:`repro.model.instances`) stores every
relation as rows of small integers and the join engine
(:mod:`repro.model.joinplan`) probes and compares those integers
directly — int hashing and int equality instead of Python-level
``__hash__``/``__eq__`` dispatch on :class:`~repro.model.terms.Term`
object graphs.  This module provides the bijection the core is built
on: a :class:`SymbolTable` maps each term (constant, labelled null,
Skolem term, …) to a dense id and back.

Design points:

* **Per-instance, not global.**  Every :class:`Instance` owns its own
  table, so long-lived processes do not pin every null and Skolem term
  of every run ever executed, and two runs assign ids independently.
  Determinism still holds: ids are handed out in first-intern order,
  and a byte-identical execution interns in a byte-identical order.
* **Lock-guarded.**  The query server runs requests on worker
  threads; double-checked interning under a ``threading.Lock`` keeps
  "one symbol, one id" true should two threads intern into one table.
* **Primed tables.**  A durable store reopens its table from the
  persisted ``(object, id)`` pairs, installed with :meth:`prime`.
* **A text cache.**  :attr:`SymbolTable.texts` maps ids to their
  printed text (:func:`repro.parser.printer.id_rows_to_text` fills
  it), so answers render without decoding atoms.  An id never changes
  its object, so an entry never goes stale; snapshots share their
  base's table and therefore its cache.

Pickling rebuilds through the constructor (the intern dict's hashes are
only valid under the pickling interpreter's hash randomization, exactly
like the term classes themselves — see :mod:`repro.model.terms`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple


class SymbolTable:
    """A thread-safe bijection ``object <-> dense int id``.

    Ids are non-negative and dense in first-intern order.

    ``texts`` is the append-only ``id -> printed text`` cache.  Readers
    fill it without a lock: inserting an int key is atomic under the
    GIL, and the text is a pure function of the id, so two readers
    racing on one id store equal strings.
    """

    __slots__ = ("_ids", "_objs", "_next", "_lock", "texts")

    def __init__(self, primed: Iterable[Tuple[object, int]] = ()):
        self._ids: Dict[object, int] = {}
        self._objs: Dict[int, object] = {}
        self._next = 0
        self._lock = threading.Lock()
        self.texts: Dict[int, str] = {}
        for obj, sid in primed:
            self.prime(obj, sid)

    # -- interning ---------------------------------------------------------

    def intern(self, obj: object) -> int:
        """The id for ``obj``, allocating one on first sight."""
        sid = self._ids.get(obj)
        if sid is None:
            with self._lock:
                sid = self._ids.get(obj)
                if sid is None:
                    sid = self._next
                    self._next = sid + 1
                    self._ids[obj] = sid
                    self._objs[sid] = obj
        return sid

    def get(self, obj: object) -> Optional[int]:
        """The id for ``obj`` if already interned, else ``None``."""
        return self._ids.get(obj)

    def prime(self, obj: object, sid: int) -> None:
        """Install ``obj ↔ sid`` (a reopened store's persisted
        assignment).  Idempotent; conflicting re-priming raises."""
        with self._lock:
            known = self._ids.get(obj)
            if known is not None:
                if known != sid:
                    raise ValueError(
                        f"symbol {obj!r} already interned as {known}, "
                        f"cannot re-prime as {sid}"
                    )
                return
            if sid in self._objs:
                raise ValueError(
                    f"id {sid} already maps to {self._objs[sid]!r}"
                )
            self._ids[obj] = sid
            self._objs[sid] = obj
            if sid >= self._next:
                self._next = sid + 1

    def clone(self) -> "SymbolTable":
        """An independent copy with identical assignments — the fast
        path for instance copies (same ids, no re-interning)."""
        out = SymbolTable.__new__(SymbolTable)
        out._ids = dict(self._ids)
        out._objs = dict(self._objs)
        out._next = self._next
        out._lock = threading.Lock()
        out.texts = {}
        return out

    # -- decoding ----------------------------------------------------------

    def obj(self, sid: int) -> object:
        """The object for ``sid`` (KeyError for unknown ids)."""
        return self._objs[sid]

    def decode_many(self, sids: Iterable[int]) -> List[object]:
        """Decode a batch of ids."""
        objs = self._objs
        return [objs[s] for s in sids]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, obj: object) -> bool:
        return obj in self._ids

    def items(self) -> List[Tuple[object, int]]:
        """``(object, id)`` pairs in id order — the pickled form."""
        return sorted(self._ids.items(), key=lambda kv: kv[1])

    def items_from(self, start: int) -> List[Tuple[object, int]]:
        """``(object, id)`` pairs with ``id >= start``, in id order —
        the durable store's append-only persistence tail.  Assumes a
        dense (intern-built) table; raises ``KeyError`` on sparse
        primed tables, for which callers fall back to :meth:`items`."""
        objs = self._objs
        return [(objs[i], i) for i in range(start, self._next)]

    def __reduce__(self):
        # Rebuild through the constructor: dict keys carry hashes from
        # the sending interpreter (see module docstring).
        return (SymbolTable, (tuple(self.items()),))

    def __repr__(self) -> str:
        return f"SymbolTable(<{len(self._ids)} symbols>)"
