"""Chase-as-a-service: the long-lived query server.

``python -m repro serve RULES.tgd --data DB.facts`` (or ``--db DIR``)
keeps one or more chased instances resident and serves conjunctive
queries, certain answers, and ground-atom entailment over HTTP, with a
``POST /facts`` ingest endpoint that maintains each instance
**incrementally** — new base facts are appended and the chase resumed
from the delta (:class:`~repro.chase.incremental.ChaseSession`), never
re-run from scratch.

The package splits transport from logic:

* :class:`~repro.serve.service.ChaseService` — the embeddable core: a
  registry of resident instances, watermark-snapshot reads, per-request
  :class:`~repro.runtime.budget.Budget` deadlines, and serialized
  incremental ingest.  Usable directly as a library (no sockets).
* :class:`~repro.serve.server.ChaseServer` — a stdlib-only ``asyncio``
  HTTP/1.1 front end over a service;
  :class:`~repro.serve.server.BackgroundServer` runs one on a daemon
  thread for tests.

* :class:`~repro.serve.admission.AdmissionController` — the overload
  gate: a service-wide concurrent-request bound plus a bounded
  per-resident ingest queue; excess load is shed with 429/503 and a
  ``Retry-After`` hint instead of queueing without bound.

Consistency model: every read request is pinned to the resident's
*published snapshot* — a row-count watermark view taken at the end of
the last completed extension leg — so concurrent readers never observe
a partially applied round, while the single writer appends the next
leg.  Durable residents additionally write every ingest delta to a
write-ahead journal (fsync before the chase runs), making
``POST /facts`` crash-recoverable and idempotent per ``ingest_id``.
See ``docs/ARCHITECTURE.md`` ("The server") for the full contract.
"""

from .admission import AdmissionController, OverloadError
from .server import BackgroundServer, ChaseServer, serve_background
from .service import ChaseService, Resident, ServiceError

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "ChaseServer",
    "ChaseService",
    "OverloadError",
    "Resident",
    "ServiceError",
    "serve_background",
]
