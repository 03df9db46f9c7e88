"""Pluggable fact-store backends (ROADMAP item 4).

The physical half of every :class:`~repro.model.instances.Instance` —
symbol table, fact log, row lists, term-level indexes, planner
statistics — lives behind the :class:`FactStore` surface, with an
in-memory backend (the byte-identical default) and a durable one
(append-only ``array('q')`` segment files, lazy mmap-backed reopen,
round-boundary chase checkpoints).  See ``storage/base.py`` and
``storage/durable.py``.

The public names resolve on first access (:mod:`repro._lazy`), so the
in-memory path never loads the durable backend or the ingest journal.
"""

from .. import _lazy

__all__ = [
    "CHASE_STATE",
    "DurableFactStore",
    "FactStore",
    "IngestJournal",
    "JOURNAL_FILE",
    "MemoryFactStore",
    "Row",
    "StoreFormatError",
    "StoreWriter",
    "open_instance",
    "open_store",
    "read_manifest",
    "save_store",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".base": ("FactStore", "MemoryFactStore", "Row"),
    ".durable": (
        "CHASE_STATE",
        "DurableFactStore",
        "StoreFormatError",
        "StoreWriter",
        "open_instance",
        "open_store",
        "read_manifest",
        "save_store",
    ),
    ".journal": ("JOURNAL_FILE", "IngestJournal"),
})
