"""Chase-as-a-service: the long-lived query server.

``python -m repro serve RULES.tgd DB.facts`` (or ``serve --db DIR``)
keeps one chased instance resident and serves conjunctive queries,
certain answers, and ground-atom entailment over HTTP, with a ``POST
/facts`` ingest endpoint that maintains the instance
**incrementally** — new base facts are appended and the chase resumed
from the delta (:class:`~repro.chase.incremental.ChaseSession`), never
re-run from scratch.

The package splits transport from logic:

* :class:`~repro.serve.service.ChaseService` — the embeddable core:
  one resident instance, watermark-snapshot reads, per-request
  :class:`~repro.runtime.budget.Budget` deadlines, and serialized
  incremental ingest.  Usable directly as a library (no sockets).
* :class:`~repro.serve.server.ChaseServer` — a stdlib-only ``asyncio``
  HTTP/1.1 front end over a service;
  :class:`~repro.serve.server.BackgroundServer` runs one on a daemon
  thread for tests and examples.
* :class:`~repro.serve.admission.AdmissionController` — the overload
  gate: a service-wide concurrent-request bound plus a bounded ingest
  queue; excess load is shed with 429/503 and a ``Retry-After`` hint
  instead of queueing without bound.

Consistency model: every read request is pinned to the resident's
*published snapshot* — a row-count watermark view taken at the end of
the last completed extension leg — so concurrent readers never observe
a partially applied round, while the single writer appends the next
leg.  Durable residents additionally write every ingest delta to a
write-ahead journal (fsync before the chase runs), making
``POST /facts`` crash-recoverable and idempotent per ``ingest_id``.
See ``docs/ARCHITECTURE.md`` ("``repro.serve`` — chase-as-a-service")
for the full contract.
"""

from .admission import AdmissionController, OverloadError
from .server import BackgroundServer, ChaseServer
from .service import ChaseService, ServiceError

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "ChaseServer",
    "ChaseService",
    "OverloadError",
    "ServiceError",
]
