"""Deterministic fault injection for the execution stack.

The fault plan travels in the ``REPRO_FAULTS`` environment variable —
the one channel that survives ``spawn``-context process creation — so
a test can arrange for *worker* processes to crash, stall, or spike
their apparent memory use without patching any code path.  The format
is a comma-separated list of directives::

    crash:N[:TOKEN_DIR]   crash (os._exit) the Nth..(first) worker batch;
                          with TOKEN_DIR, at most N crashes happen
                          *globally* (each crash claims a token file
                          atomically), so a respawned pool eventually
                          succeeds — or keeps dying when N is large.
    slow:SECONDS          sleep before evaluating each worker batch.
    spike:BYTES           report BYTES of extra working-set to the
                          memory probe (parent-side; makes memory-
                          ceiling stops deterministic).
    crash_ingest:N        crash (os._exit 42) the *server process*
                          during its Nth ingest — after the write-ahead
                          journal fsync, before the chase leg — the
                          deterministic version of "kill -9 mid-ingest"
                          the chaos driver (``ci/check_chaos.py``)
                          builds on.
    slow_accept:SECONDS   sleep at the top of every admitted service
                          request; lets overload tests saturate the
                          admission gate deterministically.
    torn_write            the next ingest-journal append writes only
                          half its record bytes and then crashes
                          (os._exit 42) — a torn write the journal
                          must detect and truncate at restart.

``crash`` only fires in worker processes (never in the parent or the
serial executor), so an injected fault exercises the pool-recovery
machinery rather than killing the run outright; the ``crash_ingest`` /
``slow_accept`` / ``torn_write`` family is serve-scoped and fires in
the *server* process, exercising the service's own recoverability
(journal replay, admission shedding) rather than the chase workers'.
All hooks are inert — a handful of dict lookups — when
``REPRO_FAULTS`` is unset.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

ENV_VAR = "REPRO_FAULTS"

# Parsed plan cache, keyed on the raw env string so in-process tests
# that mutate os.environ are picked up immediately.
_parsed: Tuple[Optional[str], Dict] = (None, {})

# Per-process count of worker batches seen (crash candidates).
_batches_seen = 0


def _plan() -> Dict:
    """The active fault plan (parsed, cached per raw env value)."""
    global _parsed
    raw = os.environ.get(ENV_VAR)
    if raw == _parsed[0]:
        return _parsed[1]
    plan: Dict = {}
    if raw:
        for directive in raw.split(","):
            directive = directive.strip()
            if not directive:
                continue
            parts = directive.split(":")
            kind = parts[0]
            if kind == "crash":
                plan["crash_count"] = int(parts[1])
                plan["crash_dir"] = parts[2] if len(parts) > 2 else None
            elif kind == "slow":
                plan["slow_s"] = float(parts[1])
            elif kind == "spike":
                plan["spike_bytes"] = int(parts[1])
            elif kind == "crash_ingest":
                plan["crash_ingest"] = int(parts[1])
            elif kind == "slow_accept":
                plan["slow_accept_s"] = float(parts[1])
            elif kind == "torn_write":
                plan["torn_write"] = True
            else:
                raise ValueError(
                    f"unknown {ENV_VAR} directive {directive!r}"
                )
    _parsed = (raw, plan)
    return plan


def _in_worker() -> bool:
    # Only the crash directive asks, so only it loads multiprocessing.
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def _claim_crash(crash_dir: Optional[str], count: int) -> bool:
    """Claim one of the ``count`` crash tokens; False when exhausted.

    Tokens are files created with ``O_CREAT | O_EXCL`` — atomic across
    processes — so at most ``count`` crashes happen in total no matter
    how many workers race for them.  Without a token directory the
    crash budget is per-process (the first ``count`` batches each
    worker sees).
    """
    if crash_dir is None:
        return _batches_seen <= count
    for index in range(count):
        path = os.path.join(crash_dir, f"crash-{index}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def batch_hook() -> None:
    """Called at every worker batch entry point.

    Applies the active plan: optional slow-down, then (workers only) a
    crash if a crash token is available.  ``os._exit`` — not an
    exception — so the parent sees genuine worker death, exactly like
    an OOM kill or segfault.
    """
    plan = _plan()
    if not plan:
        return
    global _batches_seen
    _batches_seen += 1
    slow = plan.get("slow_s")
    if slow:
        import time

        time.sleep(slow)
    count = plan.get("crash_count")
    if count and _in_worker() and _claim_crash(plan.get("crash_dir"), count):
        os._exit(42)


def alloc_spike_bytes() -> int:
    """Extra bytes the memory probe should report (0 when no spike is
    injected) — lets tests trip the memory ceiling deterministically
    without actually allocating."""
    return _plan().get("spike_bytes", 0)


# -- serve-scoped faults (the service chaos harness) -------------------------

# Per-process count of ingest legs seen (crash_ingest candidates).
_ingests_seen = 0


def serve_request_hook() -> None:
    """Called at the top of every *admitted* service request (while it
    holds its admission slot).  ``slow_accept:S`` sleeps here, so
    overload tests can pin capacity deterministically."""
    slow = _plan().get("slow_accept_s")
    if slow:
        import time

        time.sleep(slow)


def serve_ingest_hook() -> None:
    """Called once per ingest leg, after the write-ahead journal entry
    is durable and before the chase extends.  ``crash_ingest:N`` makes
    the Nth call ``os._exit(42)`` — the server dies exactly like a
    ``kill -9`` landing between the WAL ack point and the chase, the
    window journal replay exists to cover."""
    count = _plan().get("crash_ingest")
    if not count:
        return
    global _ingests_seen
    _ingests_seen += 1
    if _ingests_seen == count:
        os._exit(42)


def torn_write_planned() -> bool:
    """True when the next journal append should tear (write half its
    record, then crash) — consumed by the journal itself so the torn
    bytes genuinely reach the file before the process dies."""
    return bool(_plan().get("torn_write"))
