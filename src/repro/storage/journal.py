"""The write-ahead ingest journal: crash-recoverable ``POST /facts``.

A served resident backed by a durable store directory keeps an
``ingest.wal`` file beside the fact data.  Every ingest appends its
*parsed* delta — flat int rows over a record-local string table, plus
the request's ``ingest_id`` idempotency key — and the record is
``fsync``\\ ed **before** the chase leg runs, so the window between
"the client was (about to be) acked" and "the covering chase
checkpoint committed" is durable:

* A process crash (``kill -9``, OOM, power) mid-ingest loses nothing:
  ``serve --db`` restart replays every journaled-but-unacknowledged
  delta through :meth:`~repro.chase.incremental.ChaseSession.extend`,
  and the existing resume guarantees make the result byte-identical
  to the uninterrupted run (``ci/check_chaos.py`` holds the server to
  this).
* A client that never saw its response may retry with the same
  ``ingest_id``: the effect is applied **at most once**, and the retry
  receives the recorded response (marked ``"replayed": true``).

Record format (all fixed-width fields little-endian)::

    record  := magic "RWAL" | kind u8 ('D' | 'A') | len u32 | crc32 u32
               | payload[len]
    DELTA   := id_len u16 | ingest_id utf8
               | n_strings u16 | (s_len u16 | utf8)*     # local table
               | n_facts u32 | n_ints u32 | ints i64*    # flat rows
    ACK     := id_len u16 | ingest_id utf8 | json_len u32 | utf8

Each DELTA row is ``[pred_sid, arity, term_sid...]`` into the record's
own string table (ground null-free facts carry only constants), so a
record is self-contained and the encoding stays pure ints after the
one-time string section.  A crash can tear at most the final record;
:meth:`IngestJournal.load` verifies length and CRC sequentially and
**truncates** the file at the first bad byte instead of refusing the
store — a torn tail is an ingest the client was never acked for, and
its retry (same ``ingest_id``) applies it cleanly.

An ACK record marks a delta as *covered*: the chase leg finished and
its round-boundary checkpoint committed (``extend`` checkpoints at
the stop before returning), so replay must skip it, and the recorded
response is what a retried ``ingest_id`` receives.  Compaction —
triggered once the file outgrows ``compact_bytes`` — rewrites the
journal atomically (tmp + ``os.replace``) keeping only the bounded
ACK window (:data:`MAX_ACKS` most recent, the idempotency memory) and
any still-uncovered DELTA records, i.e. journal entries are truncated
once the covering chase checkpoint commits.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..model import Atom, Constant, Predicate
from ..runtime import faults

JOURNAL_FILE = "ingest.wal"

_MAGIC = b"RWAL"
_KIND_DELTA = ord("D")
_KIND_ACK = ord("A")
_HEADER = struct.Struct("<4sBII")  # magic, kind, payload len, crc32

#: Idempotency window: how many acknowledged ``ingest_id`` →
#: response pairs survive compaction.  A retry older than the window
#: re-applies its delta — harmless for content (base facts dedup), but
#: the response is freshly computed rather than replayed.
MAX_ACKS = 512

#: Compact (rewrite dropping covered delta payloads) once the file
#: exceeds this many bytes.
DEFAULT_COMPACT_BYTES = 64 * 1024

_U16_MAX = 0xFFFF


def _encode_delta(ingest_id: str, facts: List[Atom]) -> bytes:
    """One self-contained DELTA payload: record-local string table +
    flat int rows (``pred_sid, arity, term_sids...`` per fact)."""
    strings: Dict[str, int] = {}

    def sid(name: str) -> int:
        index = strings.get(name)
        if index is None:
            index = strings[name] = len(strings)
            if index > _U16_MAX:
                raise ValueError("delta exceeds 65536 distinct symbols")
        return index

    ints: List[int] = []
    for fact in facts:
        ints.append(sid(str(fact.predicate.name)))
        ints.append(fact.predicate.arity)
        for term in fact.terms:
            ints.append(sid(str(term.name)))
    out = bytearray()
    id_bytes = ingest_id.encode("utf-8")
    out += struct.pack("<H", len(id_bytes))
    out += id_bytes
    out += struct.pack("<H", len(strings))
    for name in strings:  # insertion order == sid order
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
    out += struct.pack("<II", len(facts), len(ints))
    out += struct.pack(f"<{len(ints)}q", *ints)
    return bytes(out)


def _decode_delta(payload: bytes) -> Tuple[str, List[Atom]]:
    offset = 0
    (id_len,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    ingest_id = payload[offset:offset + id_len].decode("utf-8")
    offset += id_len
    (n_strings,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    table: List[str] = []
    for _ in range(n_strings):
        (s_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        table.append(payload[offset:offset + s_len].decode("utf-8"))
        offset += s_len
    n_facts, n_ints = struct.unpack_from("<II", payload, offset)
    offset += 8
    ints = struct.unpack_from(f"<{n_ints}q", payload, offset)
    facts: List[Atom] = []
    cursor = 0
    for _ in range(n_facts):
        pred_name = table[ints[cursor]]
        arity = ints[cursor + 1]
        cursor += 2
        terms = [Constant(table[ints[cursor + i]]) for i in range(arity)]
        cursor += arity
        facts.append(Atom(Predicate(pred_name, arity), terms))
    return ingest_id, facts


def _encode_ack(ingest_id: str, response: dict) -> bytes:
    id_bytes = ingest_id.encode("utf-8")
    body = json.dumps(response, sort_keys=True).encode("utf-8")
    return (
        struct.pack("<H", len(id_bytes)) + id_bytes
        + struct.pack("<I", len(body)) + body
    )


def _decode_ack(payload: bytes) -> Tuple[str, dict]:
    (id_len,) = struct.unpack_from("<H", payload, 0)
    ingest_id = payload[2:2 + id_len].decode("utf-8")
    (json_len,) = struct.unpack_from("<I", payload, 2 + id_len)
    start = 6 + id_len
    return ingest_id, json.loads(payload[start:start + json_len])


def _frame(kind: int, payload: bytes) -> bytes:
    return _HEADER.pack(
        _MAGIC, kind, len(payload), zlib.crc32(payload)
    ) + payload


class IngestJournal:
    """One resident's write-ahead ingest log (see module docstring).

    Not thread-safe by itself: the service serializes appends under
    the resident's writer lock, exactly like the chase legs the
    records describe.
    """

    __slots__ = ("path", "acked", "pending", "torn_bytes",
                 "compact_bytes", "_bytes")

    def __init__(self, path: str,
                 compact_bytes: int = DEFAULT_COMPACT_BYTES):
        self.path = path
        #: ingest_id → recorded response, oldest first (the bounded
        #: idempotency memory; replayed to retried requests).
        self.acked: "OrderedDict[str, dict]" = OrderedDict()
        #: journaled but not yet acknowledged deltas, in append order
        #: — what restart must replay.
        self.pending: "OrderedDict[str, List[Atom]]" = OrderedDict()
        #: bytes discarded by torn-tail truncation at load (0 when the
        #: file was clean).
        self.torn_bytes = 0
        self.compact_bytes = compact_bytes
        self._bytes = 0
        self._load()

    @classmethod
    def attach(cls, store_dir: str,
               compact_bytes: int = DEFAULT_COMPACT_BYTES,
               ) -> "IngestJournal":
        """The journal of a store directory (``<dir>/ingest.wal``),
        created empty when absent."""
        return cls(os.path.join(store_dir, JOURNAL_FILE),
                   compact_bytes=compact_bytes)

    # -- load / recover ------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        offset = 0
        good = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                break
            magic, kind, length, crc = _HEADER.unpack_from(data, offset)
            if magic != _MAGIC:
                break
            start = offset + _HEADER.size
            payload = data[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            try:
                if kind == _KIND_DELTA:
                    ingest_id, facts = _decode_delta(payload)
                    self.pending[ingest_id] = facts
                elif kind == _KIND_ACK:
                    ingest_id, response = _decode_ack(payload)
                    self.pending.pop(ingest_id, None)
                    self.acked[ingest_id] = response
                    self.acked.move_to_end(ingest_id)
                else:
                    break
            except (struct.error, IndexError, UnicodeDecodeError,
                    ValueError):
                break
            offset = start + length
            good = offset
        self._bytes = good
        if good < len(data):
            # A torn tail: the record was never fully durable, so the
            # client was never acked — drop it; the retry re-ingests.
            self.torn_bytes = len(data) - good
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())

    def recorded(self, ingest_id: str) -> Optional[dict]:
        """The acknowledged response for ``ingest_id`` (the replay a
        retried request receives), or ``None`` when unknown."""
        return self.acked.get(ingest_id)

    # -- append --------------------------------------------------------------

    def _append(self, record: bytes, sync: bool = True) -> None:
        existed = os.path.exists(self.path)
        with open(self.path, "ab") as fh:
            if faults.torn_write_planned():
                # Chaos: half the record reaches the platter, then the
                # process dies — restart must truncate this tail.
                fh.write(record[:max(1, len(record) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                os._exit(42)
            fh.write(record)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        self._bytes += len(record)
        if not existed:
            self._fsync_dir()

    def _fsync_dir(self) -> None:
        parent = os.path.dirname(self.path) or "."
        try:
            fd = os.open(parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directory open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def append_delta(self, ingest_id: str, facts: List[Atom]) -> None:
        """Make the delta durable *before* the chase leg touches the
        instance — the fsync-before-ack half of the contract."""
        self._append(_frame(_KIND_DELTA, _encode_delta(ingest_id, facts)))
        self.pending[ingest_id] = list(facts)

    def append_ack(self, ingest_id: str, response: dict) -> None:
        """Record that the delta's chase leg finished and its covering
        checkpoint committed; the response is the idempotent replay.

        Deliberately *not* fsynced: losing an ACK only means the next
        start replays an already-applied delta — a byte-identical
        no-op (``extend`` skips duplicate base facts) that regenerates
        the ack — so durability here buys nothing, while skipping the
        fsync halves the WAL's per-ingest sync cost."""
        self._append(
            _frame(_KIND_ACK, _encode_ack(ingest_id, response)),
            sync=False,
        )
        self.pending.pop(ingest_id, None)
        self.acked[ingest_id] = response
        self.acked.move_to_end(ingest_id)
        while len(self.acked) > MAX_ACKS:
            self.acked.popitem(last=False)
        if self._bytes > self.compact_bytes:
            self.compact()

    # -- compaction ----------------------------------------------------------

    def compact(self) -> None:
        """Atomically rewrite the journal as the bounded ACK window
        plus any still-uncovered DELTA records (covered delta payloads
        — the bulk of the file — are dropped)."""
        out = bytearray()
        for ingest_id, response in self.acked.items():
            out += _frame(_KIND_ACK, _encode_ack(ingest_id, response))
        for ingest_id, facts in self.pending.items():
            out += _frame(
                _KIND_DELTA, _encode_delta(ingest_id, facts)
            )
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fsync_dir()
        self._bytes = len(out)

    def describe(self) -> dict:
        """Counters for ``/stats``."""
        return {
            "path": self.path,
            "bytes": self._bytes,
            "acked": len(self.acked),
            "pending": len(self.pending),
            "torn_bytes_truncated": self.torn_bytes,
        }
