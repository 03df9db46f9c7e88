"""Deterministic fault injection for the execution stack.

The fault plan travels in the ``REPRO_FAULTS`` environment variable,
so a test can arrange for a subprocess (the CLI, or a ``repro serve``
server) to crash, stall, or spike its apparent memory use without
patching any code path.  The format is a comma-separated list of
directives::

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

The ``crash_ingest`` / ``slow_accept`` / ``torn_write`` family is
serve-scoped and fires in the *server* process, exercising the
service's own recoverability (journal replay, admission shedding).
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
            if kind == "spike":
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
