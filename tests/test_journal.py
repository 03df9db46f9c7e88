"""The write-ahead ingest journal: durability, replay, idempotency.

The load-bearing tests rebuild a service over the same store directory
after simulated crash points — a journaled-but-unacknowledged delta
must be replayed to exactly the state an uninterrupted run reaches,
and a torn trailing record must be truncated, never trusted.
"""

import os

import pytest

from repro.chase import ChaseVariant
from repro.chase.incremental import ChaseSession
from repro.parser import parse_database, parse_fact, parse_program
from repro.serve import ChaseService
from repro.storage import JOURNAL_FILE, IngestJournal
from repro.storage.journal import MAX_ACKS, _frame

RULES = parse_program(
    """
    e(X, Y) -> p(X, Y)
    p(X, Y), e(Y, Z) -> p(X, Z)
    """
)


def facts(*texts):
    return [parse_fact(t) for t in texts]


def store_session(tmp_path, name="store"):
    path = str(tmp_path / name)
    return ChaseSession.start(
        parse_database("e(n0, n1)\ne(n1, n2)"), RULES,
        variant=ChaseVariant.SEMI_OBLIVIOUS, save=path,
    ), path


# -- record round-trips ------------------------------------------------------


def test_delta_roundtrip_and_pending(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    delta = facts("e(n2, n3)", "p(a, b)")
    journal.append_delta("d1", delta)
    assert "d1" in journal.pending

    reopened = IngestJournal(path)
    assert list(reopened.pending) == ["d1"]
    assert reopened.pending["d1"] == delta
    assert reopened.torn_bytes == 0


def test_ack_covers_delta_and_replays_response(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    journal.append_delta("d1", facts("e(n2, n3)"))
    journal.append_ack("d1", {"watermark": 7, "new_facts": 2})

    reopened = IngestJournal(path)
    assert not reopened.pending
    assert reopened.recorded("d1") == {"watermark": 7, "new_facts": 2}
    assert reopened.recorded("unknown") is None


def test_torn_tail_is_truncated_not_fatal(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    journal.append_delta("d1", facts("e(n2, n3)"))
    journal.append_delta("d2", facts("e(n3, n4)"))
    # Tear the final record: keep the first, chop the second mid-way.
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - 5)

    reopened = IngestJournal(path)
    assert list(reopened.pending) == ["d1"]
    assert reopened.torn_bytes > 0
    # The truncation is durable: a third open sees a clean file.
    assert IngestJournal(path).torn_bytes == 0


def test_garbage_tail_is_truncated(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    journal.append_delta("d1", facts("e(n2, n3)"))
    with open(path, "ab") as fh:
        fh.write(b"not a journal record at all")
    reopened = IngestJournal(path)
    assert list(reopened.pending) == ["d1"]
    assert reopened.torn_bytes > 0


def test_corrupt_crc_rejects_record(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    journal.append_delta("d1", facts("e(n2, n3)"))
    # Flip one payload byte; the CRC must catch it.
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))
    reopened = IngestJournal(path)
    assert not reopened.pending
    assert reopened.torn_bytes > 0


def test_ack_window_is_bounded_and_compaction_keeps_pending(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path, compact_bytes=1)  # compact every ack
    journal.append_delta("stuck", facts("e(n2, n3)"))
    for i in range(MAX_ACKS + 10):
        journal.append_delta(f"d{i}", facts(f"e(a{i}, b{i})"))
        journal.append_ack(f"d{i}", {"i": i})
    assert len(journal.acked) == MAX_ACKS
    assert journal.recorded("d0") is None  # aged out of the window
    assert journal.recorded(f"d{MAX_ACKS + 9}") == {"i": MAX_ACKS + 9}

    reopened = IngestJournal(path)
    assert list(reopened.pending) == ["stuck"]
    assert len(reopened.acked) == MAX_ACKS


def test_compaction_shrinks_the_file(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path, compact_bytes=10**9)  # never auto
    wide = facts(*[f"e(x{i}, y{i})" for i in range(50)])
    for i in range(20):
        journal.append_delta(f"d{i}", wide)
        journal.append_ack(f"d{i}", {"i": i})
    before = os.path.getsize(path)
    journal.compact()
    after = os.path.getsize(path)
    assert after < before  # covered delta payloads dropped
    reopened = IngestJournal(path)
    assert not reopened.pending
    assert len(reopened.acked) == 20


def test_unknown_record_kind_stops_the_scan(tmp_path):
    path = str(tmp_path / JOURNAL_FILE)
    journal = IngestJournal(path)
    journal.append_delta("d1", facts("e(n2, n3)"))
    with open(path, "ab") as fh:
        fh.write(_frame(ord("Z"), b"future record kind"))
    reopened = IngestJournal(path)
    assert list(reopened.pending) == ["d1"]
    assert reopened.torn_bytes > 0


# -- service integration: the crash window -----------------------------------


def test_service_replays_unacked_delta_after_crash(tmp_path):
    """Crash point: after the WAL fsync, before the chase leg — the
    restarted service must replay the delta and reach the state the
    uninterrupted run reaches."""
    session, path = store_session(tmp_path)
    service = ChaseService(session, journal=True)
    service.close()

    # Simulate the crash window: journal the delta, never run the leg.
    journal = IngestJournal.attach(path)
    journal.append_delta("d1", facts("e(n2, n3)"))

    resumed = ChaseSession.resume(path)
    recovered = ChaseService(resumed, journal=True)
    assert recovered.ingests == 1  # the replayed delta
    out = recovered.query("q(X, Y) :- p(X, Y)", certain=True)
    assert "q(n0, n3)" in out["answers"]  # transitively derived
    # The retried ingest_id dedupes to the recorded replay response.
    retry = recovered.ingest(["e(n2, n3)"], ingest_id="d1")
    assert retry["replayed"] is True
    assert retry["watermark"] == out["watermark"]
    recovered.close()


def test_replay_matches_uninterrupted_run(tmp_path):
    """Byte-level equivalence: crash-and-replay produces the same
    manifest watermark and answers as never crashing."""
    clean_session, _clean = store_session(tmp_path, "clean")
    clean = ChaseService(clean_session, journal=True)
    clean.ingest(["e(n2, n3)"], ingest_id="d1")
    expected = clean.query("q(X, Y) :- p(X, Y)", certain=True)
    clean.close()

    crash_session, path = store_session(tmp_path, "crashed")
    crash = ChaseService(crash_session, journal=True)
    crash.close()
    IngestJournal.attach(path).append_delta("d1", facts("e(n2, n3)"))

    recovered = ChaseService(ChaseSession.resume(path), journal=True)
    got = recovered.query("q(X, Y) :- p(X, Y)", certain=True)
    assert sorted(got["answers"]) == sorted(expected["answers"])
    assert got["watermark"] == expected["watermark"]
    recovered.close()


def test_ingest_without_id_gets_synthesized_key(tmp_path):
    session, _path = store_session(tmp_path)
    service = ChaseService(session, journal=True)
    out = service.ingest(["e(n2, n3)"])
    assert out["ingest_id"].startswith("auto-")
    service.close()


def test_journal_true_requires_durable_session():
    session = ChaseSession.start(
        parse_database("e(n0, n1)"), RULES,
        variant=ChaseVariant.SEMI_OBLIVIOUS,
    )
    with pytest.raises(ValueError, match="durable"):
        ChaseService(session, journal=True)
    session.close()


def test_store_path_property(tmp_path):
    durable, path = store_session(tmp_path)
    assert durable.store_path == path
    durable.close()
    memory = ChaseSession.start(
        parse_database("e(n0, n1)"), RULES,
        variant=ChaseVariant.SEMI_OBLIVIOUS,
    )
    assert memory.store_path is None
    memory.close()
