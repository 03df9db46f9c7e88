"""Admission control: shed load instead of queueing without bound.

Without a gate the server accepts every request the thread pool can
hold; under sustained overload that means unbounded latency growth
and, for ingest, an unbounded line of writers parked on the resident's
writer lock.  The :class:`AdmissionController` is the service-wide
gate every verb passes through:

* **Concurrent-request gate.**  At most ``max_inflight`` requests are
  in flight service-wide; the next one is *shed* with HTTP 503 and a
  ``Retry-After`` computed from the recent request-latency EWMA — the
  client learns when capacity is likely back instead of timing out.
* **Bounded ingest queue.**  Ingests are serialized by the resident's
  writer lock; at most ``max_ingest_queue`` may wait for it.  The next
  is shed with HTTP 429 (the resident is healthy — the *caller* is
  sending faster than one chase can drain).

Shedding is deliberately cheap (one lock, two integer comparisons) and
happens before any parsing or budget work, so a saturated service
stays responsive: ``/health`` and ``/stats`` bypass admission
entirely and keep answering while requests shed.

``Retry-After`` heuristic: the EWMA of recent admitted-request
latencies, scaled by the current depth of the line
(``inflight / max_inflight`` for the service gate, queue length for an
ingest queue), floored at 1 second — i.e. "roughly one drain period".
The EWMA updates on every admitted request's completion (success or
failure), so a service saturated with slow queries quotes honestly
long retry hints.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Optional

from .service import ServiceError

#: EWMA smoothing factor for request latency (~last 10 requests).
_ALPHA = 0.2

#: How long after the last shed the service still reports
#: ``degraded`` (overload is bursty; health should not flap per
#: request).
DEGRADED_WINDOW_S = 10.0


class OverloadError(ServiceError):
    """A shed request: HTTP 429 (ingest queue full) or 503
    (service-wide gate), carrying the ``Retry-After`` hint."""

    def __init__(self, message: str, status: int, retry_after_s: float):
        super().__init__(message, status=status)
        self.retry_after_s = retry_after_s


class AdmissionController:
    """The service-wide gate (see module docstring).

    ``max_inflight`` bounds concurrently admitted requests (``None``
    disables the gate); ``max_ingest_queue`` bounds how many ingests
    may wait on the resident's writer lock.  ``clock`` is injectable
    for deterministic tests.
    """

    __slots__ = ("max_inflight", "max_ingest_queue", "_lock", "_clock",
                 "inflight", "accepted", "shed", "ingest_waiting",
                 "ingest_shed", "_ewma_s", "_last_shed_at")

    def __init__(
        self,
        max_inflight: Optional[int] = 64,
        max_ingest_queue: int = 16,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if max_ingest_queue <= 0:
            raise ValueError(
                f"max_ingest_queue must be positive, got {max_ingest_queue}"
            )
        self.max_inflight = max_inflight
        self.max_ingest_queue = max_ingest_queue
        self._lock = threading.Lock()
        self._clock = clock
        self.inflight = 0
        self.accepted = 0
        self.shed = 0
        #: Ingests currently waiting on the writer lock.
        self.ingest_waiting = 0
        self.ingest_shed = 0
        self._ewma_s: Optional[float] = None
        self._last_shed_at: Optional[float] = None

    # -- the service-wide gate ----------------------------------------------

    def acquire(self) -> float:
        """Admit one request (returns its start time for
        :meth:`release`) or shed it with :class:`OverloadError` 503."""
        with self._lock:
            if (
                self.max_inflight is not None
                and self.inflight >= self.max_inflight
            ):
                self.shed += 1
                self._last_shed_at = self._clock()
                retry = self._retry_after_locked(self.inflight)
                raise OverloadError(
                    f"service at capacity ({self.inflight} requests in "
                    f"flight); retry in ~{retry:.1f}s",
                    status=503,
                    retry_after_s=retry,
                )
            self.inflight += 1
            self.accepted += 1
        return self._clock()

    def release(self, started_at: float) -> None:
        """Complete an admitted request; feeds the latency EWMA."""
        elapsed = max(0.0, self._clock() - started_at)
        with self._lock:
            self.inflight -= 1
            if self._ewma_s is None:
                self._ewma_s = elapsed
            else:
                self._ewma_s += _ALPHA * (elapsed - self._ewma_s)

    # -- the ingest queue ----------------------------------------------------

    def enter_ingest_queue(self) -> None:
        """Join the line for the writer lock, or shed with
        :class:`OverloadError` 429 when the line is full."""
        with self._lock:
            if self.ingest_waiting >= self.max_ingest_queue:
                self.ingest_shed += 1
                self._last_shed_at = self._clock()
                retry = self._retry_after_locked(self.ingest_waiting)
                raise OverloadError(
                    f"ingest queue is full ({self.ingest_waiting} "
                    f"waiting); retry in ~{retry:.1f}s",
                    status=429,
                    retry_after_s=retry,
                )
            self.ingest_waiting += 1

    def leave_ingest_queue(self) -> None:
        with self._lock:
            self.ingest_waiting -= 1

    # -- health / stats ------------------------------------------------------

    def _retry_after_locked(self, depth: int) -> float:
        base = self._ewma_s if self._ewma_s else 0.5
        return min(60.0, max(1.0, base * (depth + 1)))

    def retry_after_s(self) -> float:
        """The current ``Retry-After`` hint in seconds (≥ 1)."""
        with self._lock:
            return self._retry_after_locked(self.inflight)

    def retry_after_header(self, retry_s: Optional[float] = None) -> str:
        """``Retry-After`` is integer seconds on the wire."""
        if retry_s is None:
            retry_s = self.retry_after_s()
        return str(max(1, int(math.ceil(retry_s))))

    def overloaded_recently(self) -> bool:
        """True while the service is inside the post-shed degraded
        window — the ``/health`` signal that load is being shed."""
        last = self._last_shed_at
        return (
            last is not None
            and self._clock() - last < DEGRADED_WINDOW_S
        )

    def describe(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_ingest_queue": self.max_ingest_queue,
                "inflight": self.inflight,
                "accepted": self.accepted,
                "shed": self.shed,
                "ingest_shed": self.ingest_shed,
                "latency_ewma_s": (
                    round(self._ewma_s, 6)
                    if self._ewma_s is not None else None
                ),
            }
