"""The embeddable chase service: one resident, snapshots, budgets, ingest.

:class:`ChaseService` is the transport-free core of ``repro serve`` —
one *resident* (a chased instance kept in memory, optionally
checkpointing to a durable store) with four operations:

``query``
    Evaluate a conjunctive query (naive or certain answers, or a bare
    boolean conjunction) against the resident's **published snapshot**
    — a watermark view pinned once per request, so the answer set is
    computed over one consistent instance even while an ingest is
    appending the next extension leg.
``entail``
    Ground-atom entailment.  Over a terminated chase the resident is a
    universal model, so a constant-only atom is entailed iff it is
    *present* — one O(1) membership probe at the pinned watermark.
``ingest``
    Append new base facts and incrementally maintain the chase
    (:meth:`~repro.chase.incremental.ChaseSession.extend`), then
    publish a fresh snapshot.  Single-writer: ingests are serialized
    by a lock; readers are never blocked.  With a
    durable resident the delta is first made durable in the
    write-ahead ingest journal (:mod:`repro.storage.journal`), so a
    crash mid-leg loses nothing and a retried ``ingest_id`` is
    deduplicated (at-most-once effect, replayed response).
``status``
    The resident's counters and chase state.

Every request passes the service's
:class:`~repro.serve.admission.AdmissionController` first — overload
is *shed* (HTTP 429/503 with a ``Retry-After`` hint) instead of queued
without bound — and runs under a fresh
:class:`~repro.runtime.budget.Budget` carrying the service's shared
:class:`~repro.runtime.budget.CancelToken`, so :meth:`shutdown`
cancels in-flight work cooperatively.

Failure containment: a budget-tripped ingest leg *republishes* the
session's round-consistent prefix (with its stop reason) so readers
see the true durable state; an ingest leg that fails for any
non-budget reason **quarantines** the resident — read-only at its
last published snapshot, refusing further ingests — instead of
poisoning the whole service.  ``/health`` reports the resulting
``ok | degraded | quarantined`` state.

Thread-safety contract: the service publishes snapshots by plain attribute
assignment (atomic under the GIL) and snapshots never intern into the
shared symbol tables, so any number of reader threads may serve
requests while one ingest extends the instance — the GIL-safety
argument lives in :mod:`repro.storage.snapshot`.  Counters are guarded
by a lock so ``/stats`` is exact under concurrency.
"""

from __future__ import annotations

import contextlib
import threading
import uuid
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Union

from ..chase.incremental import ChaseSession
from ..errors import BudgetExceededError, ReproError
from ..model import Atom, Instance
from ..model.instances import SnapshotInstance
from ..parser import atom_to_text, parse_atom, parse_fact, parse_query
from ..query.kernels import check_kernel
from ..runtime import faults
from ..runtime.budget import Budget, CancelToken
from ..storage.journal import MAX_ACKS, IngestJournal

#: Resident health states (``/health`` reports ``degraded`` for an
#: ``ok`` resident while admission sheds).
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_QUARANTINED = "quarantined"


class ServiceError(ReproError):
    """A request-level failure with an HTTP-ish status code (400 bad
    request, 409 read-only resident, 429/503 overload, ...)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


FactsInput = Union[str, Iterable[str]]


class ChaseService:
    """The transport-free server core: one resident + four verbs.

    ``resident`` is a :class:`ChaseSession` (extendable) or an
    :class:`Instance` served read-only (e.g. a reopened plain store).
    ``journal=True`` attaches the write-ahead ingest journal beside the
    session's checkpoint store; journaled deltas that were never
    acknowledged (the process died mid-ingest) are **replayed**
    through the session before the constructor returns.

    ``request_timeout_s`` caps every per-request deadline (a request
    may ask for less, never more).  ``admission`` is the overload gate
    (a default :class:`~repro.serve.admission.AdmissionController`
    when omitted).  ``kernel`` is the execution tier every query runs
    on: ``"tuple"``, ``"vector"`` or ``"auto"`` (see
    :data:`repro.query.kernels.KERNELS` — the CLI's ``--kernel``).  It
    does not reach the resident's chase: a session discovers on the
    kernel it was started with, a resumed one on ``"tuple"``.
    """

    def __init__(
        self,
        resident: Union[ChaseSession, Instance],
        *,
        journal: bool = False,
        request_timeout_s: Optional[float] = 30.0,
        admission=None,
        kernel: str = "tuple",
    ):
        from .admission import AdmissionController

        self._check_settings(request_timeout_s, kernel)
        if isinstance(resident, ChaseSession):
            session, instance = resident, resident.instance
        elif isinstance(resident, Instance):
            session, instance = None, resident
        else:
            raise TypeError(
                f"serve a ChaseSession or an Instance, got "
                f"{type(resident).__name__}"
            )
        self.request_timeout_s = request_timeout_s
        self.kernel = kernel
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        #: The shared cancellation token every request budget carries;
        #: :meth:`shutdown` flips it.
        self.cancel = CancelToken()
        self.session = session
        self.instance = instance
        #: The published consistent view; replaced wholesale (atomic
        #: attribute write) at the end of every ingest leg.
        self.snapshot: SnapshotInstance = instance.snapshot()
        #: Serializes ingest legs (the chase is single-writer).
        self.lock = threading.Lock()
        self.terminated: Optional[bool] = (
            session.terminated if session else None
        )
        self.stop_reason: Optional[str] = (
            session.stop_reason if session else None
        )
        self.queries = 0
        self.ingests = 0
        self.quarantine_reason: Optional[str] = None
        #: The write-ahead ingest journal (durable residents only).
        self.journal: Optional[IngestJournal] = None
        #: ``ingest_id`` → recorded response: the in-memory idempotency
        #: window (seeded from the journal when one is attached).
        self._acks: "OrderedDict[str, dict]" = OrderedDict()
        #: Guards the counters so ``/stats`` is exact under concurrent
        #: readers (``+=`` is read-modify-write, not atomic).
        self._count_lock = threading.Lock()
        if journal:
            store_dir = session.store_path if session else None
            if store_dir is None:
                raise ValueError(
                    "journal=True needs a session with a durable "
                    "checkpoint store"
                )
            self.journal = IngestJournal.attach(store_dir)
            self._acks = OrderedDict(self.journal.acked)
            self._recover()

    @staticmethod
    def _check_settings(
        request_timeout_s: Optional[float], kernel: str
    ) -> None:
        """Refuse settings every request would inherit.  ``repro
        serve`` calls this before its chase, so a bad flag costs no
        chase."""
        check_kernel(kernel)
        # Every request without its own timeout_s gets this deadline,
        # so a bad one would fail every request (or, NaN, never trip).
        if request_timeout_s is not None and not request_timeout_s > 0:
            raise ValueError(
                f"request_timeout_s must be positive, got "
                f"{request_timeout_s}"
            )

    def _state(self) -> str:
        """The resident's health: ``quarantined`` after a failed
        ingest leg, ``degraded`` while the last leg stopped short of
        fixpoint, else ``ok``."""
        if self.quarantine_reason is not None:
            return HEALTH_QUARANTINED
        if self.session is not None and self.stop_reason not in (
            None, "fixpoint"
        ):
            return HEALTH_DEGRADED
        return HEALTH_OK

    def _note_query(self) -> None:
        with self._count_lock:
            self.queries += 1

    def _note_ingest(self) -> None:
        with self._count_lock:
            self.ingests += 1

    def _record_response(self, ingest_id: str, response: dict) -> None:
        """Remember (and, when journaled, persist) the response a
        retried ``ingest_id`` replays.  Called under :attr:`lock`."""
        if self.journal is not None:
            self.journal.append_ack(ingest_id, response)
        self._acks[ingest_id] = response
        self._acks.move_to_end(ingest_id)
        while len(self._acks) > MAX_ACKS:
            self._acks.popitem(last=False)

    # -- crash recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journaled-but-unacknowledged deltas (a previous
        process died between the WAL fsync and the chase checkpoint).
        ``extend`` skips facts the interrupted leg already made
        durable, so replay is idempotent and the result is
        byte-identical to the uninterrupted run."""
        journal = self.journal
        session = self.session
        for ingest_id, facts in list(journal.pending.items()):
            with self.lock:
                before = session.watermark
                steps_before = session.step_count
                try:
                    session.extend(facts)
                except Exception as exc:
                    self.quarantine_reason = (
                        f"journal replay of {ingest_id!r} failed: {exc}"
                    )
                    break
                self._publish()
                response = self._ingest_response(
                    before, steps_before, None, ingest_id=ingest_id,
                )
                self._record_response(ingest_id, response)
                self._note_ingest()

    # -- budgets / admission -------------------------------------------------

    def request_budget(self, timeout_s: Optional[float] = None) -> Budget:
        """A fresh, started budget for one request: the requested
        deadline capped by the service-wide limit, carrying the shared
        cancel token (so shutdown cancels in-flight requests)."""
        cap = self.request_timeout_s
        if timeout_s is None:
            timeout_s = cap
        elif (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or not timeout_s > 0  # NaN or <= 0
        ):
            raise ServiceError(
                f"timeout_s must be a positive number, got {timeout_s!r}"
            )
        elif cap is not None:
            timeout_s = min(timeout_s, cap)
        return Budget(timeout_s=timeout_s, cancel=self.cancel).start()

    @contextlib.contextmanager
    def _admitted(self):
        """One admitted request: acquire an admission slot (or shed),
        apply the serve-scoped fault plan, release + feed the latency
        EWMA on the way out."""
        started_at = self.admission.acquire()
        try:
            faults.serve_request_hook()
            yield
        finally:
            self.admission.release(started_at)

    # -- the verbs -----------------------------------------------------------

    def query(
        self,
        text: str,
        *,
        certain: bool = False,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Answer a conjunctive query over the resident's published
        snapshot.

        ``text`` is the CLI query syntax — ``"q(X) :- e(X, Y)"``, or a
        bare conjunction for a boolean query.  ``certain`` filters to
        null-free answers (the certain answers whenever the resident's
        chase terminated).  Queries run on the service's ``kernel``.
        Answers render as atom text over the query's answer predicate,
        exactly like ``repro query``.
        """
        with self._admitted():
            snapshot = self.snapshot  # pin once: the request's world
            kernel = self.kernel
            if not isinstance(certain, bool):
                raise ServiceError(
                    f"certain must be a boolean, got {certain!r}"
                )
            try:
                query = parse_query(text)
            except (ReproError, ValueError) as exc:
                raise ServiceError(f"bad query: {exc}") from exc
            budget = self.request_budget(timeout_s)
            out: Dict[str, object] = {
                "watermark": snapshot.watermark,
                "certain": certain,
            }
            if self.terminated is False:
                out["warning"] = (
                    "the resident chase has not terminated; answers are "
                    "computed over a partial instance"
                )
            if query.is_boolean():
                out["boolean"] = query.holds_in(
                    snapshot, kernel=kernel, budget=budget
                )
            else:
                answers = list(query.answer_texts(
                    snapshot, certain=certain, kernel=kernel, budget=budget,
                ))
                out["answers"] = answers
                out["count"] = len(answers)
            out["elapsed_s"] = round(budget.elapsed_s(), 6)
            self._note_query()
            return out

    def entail(
        self,
        text: str,
        *,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Is a ground constant-only atom entailed by the resident's
        data and rules?

        Over a *terminated* chase the resident is a universal model,
        so entailment of a constant-only atom collapses to membership
        — one O(1) probe at the pinned watermark.  Over an unfinished
        chase, presence still implies entailment (the chase is sound);
        absence is reported with a warning (the model is partial).
        """
        with self._admitted():
            snapshot = self.snapshot
            try:
                atom = parse_atom(text)
            except (ReproError, ValueError) as exc:
                raise ServiceError(f"bad atom: {exc}") from exc
            if not atom.is_ground() or atom.nulls():
                raise ServiceError(
                    f"entailment takes a ground constant-only atom, "
                    f"got {atom}"
                )
            self.request_budget(timeout_s)  # validates; membership is O(1)
            entailed = atom in snapshot
            out: Dict[str, object] = {
                "watermark": snapshot.watermark,
                "atom": atom_to_text(atom),
                "entailed": entailed,
            }
            if not entailed and self.terminated is False:
                out["warning"] = (
                    "the resident chase has not terminated; a negative "
                    "entailment answer may be incomplete"
                )
            self._note_query()
            return out

    def ingest(
        self,
        facts: FactsInput,
        *,
        timeout_s: Optional[float] = None,
        max_steps: Optional[int] = None,
        ingest_id: Optional[str] = None,
    ) -> dict:
        """Append new base facts and incrementally maintain the chase.

        ``facts`` is database text (one ground atom per line) or an
        iterable of single-fact strings.  The resident's chase resumes
        from the delta only (semi-naive, persistent fired keys — see
        :mod:`repro.chase.incremental`); when it checkpoints, the
        delta and its derivations are durable at return.  A fresh
        snapshot is published on completion — readers keep their
        pinned watermarks throughout.  ``max_steps`` raises the
        session's total step cap; a value below the current cap is
        refused (400) before anything changes.

        ``ingest_id`` is the client's idempotency key: a repeated id
        is applied **at most once** and answered with the recorded
        response of the first application (``"replayed": true``).
        Journaled residents fsync the parsed delta before the chase
        runs, so a crash anywhere after this call was acked — and even
        mid-leg before the ack — is recovered by journal replay at the
        next ``serve --db`` start.
        """
        with self._admitted():
            session = self.session
            if session is None:
                raise ServiceError(
                    "the resident is read-only (no chase state); ingest "
                    "needs a session-backed resident",
                    status=409,
                )
            if ingest_id is not None:
                # An already-acknowledged retry replays even on a
                # quarantined resident — the effect *did* happen.
                recorded = self._acks.get(ingest_id)
                if recorded is not None:
                    return dict(recorded, replayed=True)
            if self.quarantine_reason is not None:
                raise ServiceError(
                    f"the resident is quarantined read-only "
                    f"({self.quarantine_reason}); restart the server "
                    f"to recover it",
                    status=503,
                )
            if max_steps is not None and (
                isinstance(max_steps, bool)
                or not isinstance(max_steps, int)
                or max_steps <= 0
            ):
                raise ServiceError(
                    f"max_steps must be a positive integer, "
                    f"got {max_steps}"
                )
            try:
                if isinstance(facts, str):
                    parsed: List[Atom] = [
                        parse_fact(line)
                        for line in facts.splitlines()
                        if line.strip() and not line.lstrip().startswith("%")
                    ]
                else:
                    parsed = [parse_fact(text) for text in facts]
            except (ReproError, ValueError) as exc:
                raise ServiceError(f"bad fact: {exc}") from exc
            if not parsed:
                raise ServiceError("no facts to ingest")
            for fact in parsed:
                if not fact.is_ground() or fact.nulls():
                    raise ServiceError(
                        f"ingested facts must be ground and null-free, "
                        f"got {atom_to_text(fact)}"
                    )
            budget = self.request_budget(timeout_s)
            if self.journal is not None and ingest_id is None:
                # Journal replay needs a key even when the client sent
                # none; synthesize one (returned in the response).
                ingest_id = f"auto-{uuid.uuid4().hex}"
            self.admission.enter_ingest_queue()
            try:
                with self.lock:
                    if ingest_id is not None:
                        # Re-check under the lock: a concurrent retry
                        # of the same id may have just completed.
                        recorded = self._acks.get(ingest_id)
                        if recorded is not None:
                            return dict(recorded, replayed=True)
                    if max_steps is not None and max_steps < session.max_steps:
                        # Checked under the lock, where the cap cannot
                        # move: a lower cap would freeze the chase.
                        raise ServiceError(
                            f"max_steps can only raise the step cap "
                            f"({session.max_steps}), got {max_steps}"
                        )
                    if self.journal is not None:
                        # fsync-before-ack: the delta is durable before
                        # the chase sees it.
                        self.journal.append_delta(ingest_id, parsed)
                    # Chaos crash point: the window between WAL
                    # durability and the chase leg.
                    faults.serve_ingest_hook()
                    before = session.watermark
                    steps_before = session.step_count
                    try:
                        session.extend(
                            parsed, budget=budget, max_steps=max_steps,
                        )
                    except BudgetExceededError as exc:
                        # The leg stopped mid-flight on a budget: the
                        # session still holds a durable round-consistent
                        # prefix — republish it (with its stop reason)
                        # so readers see the true durable state instead
                        # of a stale pre-ingest snapshot.
                        self.snapshot = session.snapshot()
                        self.terminated = False
                        self.stop_reason = (
                            exc.stop_reason or session.stop_reason
                        )
                        raise
                    except Exception as exc:
                        # A non-budget mid-leg failure: the session's
                        # evaluation state can no longer be trusted.
                        # Quarantine the resident read-only at its last
                        # published snapshot; the journaled delta (no
                        # ack) replays after a restart.
                        self.quarantine_reason = f"ingest leg failed: {exc}"
                        raise ServiceError(
                            f"the resident is quarantined: ingest leg "
                            f"failed ({exc}); reads continue at watermark "
                            f"{self.snapshot.watermark}",
                            status=503,
                        ) from exc
                    # Publish: one atomic attribute write; readers
                    # pinned to the old snapshot finish undisturbed,
                    # new requests see the maintained instance.
                    self._publish()
                    self._note_ingest()
                    response = self._ingest_response(
                        before, steps_before, budget, ingest_id=ingest_id,
                    )
                    if ingest_id is not None:
                        self._record_response(ingest_id, response)
                    return response
            finally:
                self.admission.leave_ingest_queue()

    def _publish(self) -> None:
        session = self.session
        self.snapshot = session.snapshot()
        self.terminated = session.terminated
        self.stop_reason = session.stop_reason

    def _ingest_response(
        self, before: int, steps_before: int,
        budget: Optional[Budget], ingest_id: Optional[str],
    ) -> dict:
        session = self.session
        response = {
            "watermark": self.snapshot.watermark,
            "new_facts": self.snapshot.watermark - before,
            "new_steps": session.step_count - steps_before,
            "terminated": session.terminated,
            "stop_reason": session.stop_reason,
            "elapsed_s": (
                round(budget.elapsed_s(), 6) if budget is not None else 0.0
            ),
        }
        if ingest_id is not None:
            response["ingest_id"] = ingest_id
        return response

    # -- introspection / lifecycle -------------------------------------------

    def health(self) -> dict:
        """The cheap liveness/readiness summary (no parsing, no
        snapshot work — safe to compute even under full overload):
        the resident's state, degraded while admission is actively
        shedding."""
        status = self._state()
        if status == HEALTH_OK and self.admission.overloaded_recently():
            status = HEALTH_DEGRADED
        draining = self.cancel.cancelled()
        out: Dict[str, object] = {
            "ok": status == HEALTH_OK and not draining,
            "status": status,
            "draining": draining,
        }
        if status != HEALTH_OK:
            out["retry_after_s"] = round(
                self.admission.retry_after_s(), 3
            )
        return out

    def status(self) -> dict:
        """The resident's counters and chase state, then the
        service's deadline cap, admission counters and shutdown flag."""
        out: Dict[str, object] = {
            "facts": self.snapshot.watermark,
            "read_only": self.session is None,
            "terminated": self.terminated,
            "health": self._state(),
            "queries": self.queries,
            "ingests": self.ingests,
        }
        if self.quarantine_reason is not None:
            out["quarantine_reason"] = self.quarantine_reason
        session = self.session
        if session is not None:
            out["variant"] = session.variant
            out["steps"] = session.step_count
            out["stop_reason"] = self.stop_reason
        if self.journal is not None:
            out["journal"] = self.journal.describe()
        out["request_timeout_s"] = self.request_timeout_s
        out["admission"] = self.admission.describe()
        out["shutting_down"] = self.cancel.cancelled()
        return out

    def shutdown(self) -> None:
        """Cooperatively cancel in-flight requests (their budgets share
        the service token) and mark the service as stopping."""
        self.cancel.cancel()

    def close(self) -> None:
        """Shut down and close the resident session."""
        self.shutdown()
        if self.session is not None:
            self.session.close()
