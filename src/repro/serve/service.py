"""The embeddable chase service: residents, snapshots, budgets, ingest.

:class:`ChaseService` is the transport-free core of ``repro serve`` —
a registry of named *residents* (chased instances kept in memory,
optionally checkpointing to durable stores) with four operations:

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
    publish a fresh snapshot.  Single-writer: ingests to one resident
    are serialized by a lock; readers are never blocked.  With a
    durable resident the delta is first made durable in the
    write-ahead ingest journal (:mod:`repro.storage.journal`), so a
    crash mid-leg loses nothing and a retried ``ingest_id`` is
    deduplicated (at-most-once effect, replayed response).
``status``
    Per-resident counters and chase state.

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

Thread-safety contract: residents publish snapshots by plain attribute
assignment (atomic under the GIL) and snapshots never intern into the
shared symbol tables, so any number of reader threads may serve
requests while one ingest extends the instance — the GIL-safety
argument lives in :mod:`repro.storage.snapshot`.  Counters are guarded
by a per-resident lock so ``/stats`` is exact under concurrency.
"""

from __future__ import annotations

import contextlib
import threading
import uuid
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Union

from ..chase.incremental import ChaseSession
from ..errors import BudgetExceededError, ReproError
from ..model import Atom, Instance, Predicate
from ..model.instances import SnapshotInstance
from ..parser import atom_to_text, parse_atom, parse_fact, parse_query
from ..runtime import faults
from ..runtime.budget import Budget, CancelToken
from ..storage.journal import MAX_ACKS, IngestJournal

#: Resident health states (worst-wins at the service level).
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_QUARANTINED = "quarantined"


class ServiceError(ReproError):
    """A request-level failure with an HTTP-ish status code (400 bad
    request, 404 unknown resident, 409 read-only resident, 429/503
    overload, ...)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class Resident:
    """One served instance: a :class:`ChaseSession` (extendable) or a
    bare read-only :class:`Instance` (e.g. a reopened plain store),
    plus the published snapshot reads are pinned to."""

    __slots__ = ("name", "session", "instance", "snapshot", "lock",
                 "terminated", "stop_reason", "queries", "ingests",
                 "ingest_waiting", "quarantine_reason", "journal",
                 "_acks", "_count_lock")

    def __init__(
        self,
        name: str,
        session: Optional[ChaseSession] = None,
        instance: Optional[Instance] = None,
        terminated: Optional[bool] = None,
    ):
        if (session is None) == (instance is None):
            raise ValueError("pass a session or an instance, not both")
        self.name = name
        self.session = session
        self.instance = session.instance if session else instance
        #: The published consistent view; replaced wholesale (atomic
        #: attribute write) at the end of every ingest leg.
        self.snapshot: SnapshotInstance = self.instance.snapshot()
        #: Serializes ingest legs (the chase is single-writer).
        self.lock = threading.Lock()
        self.terminated = (
            session.terminated if session else terminated
        )
        self.stop_reason: Optional[str] = (
            session.stop_reason if session else None
        )
        self.queries = 0
        self.ingests = 0
        #: Ingests currently waiting on :attr:`lock` (bounded by the
        #: admission controller; mutated under its lock).
        self.ingest_waiting = 0
        self.quarantine_reason: Optional[str] = None
        #: The write-ahead ingest journal (durable residents only).
        self.journal: Optional[IngestJournal] = None
        #: ``ingest_id`` → recorded response: the in-memory idempotency
        #: window (seeded from the journal when one is attached).
        self._acks: "OrderedDict[str, dict]" = OrderedDict()
        #: Guards the counters so ``/stats`` is exact under concurrent
        #: readers (``+=`` is read-modify-write, not atomic).
        self._count_lock = threading.Lock()

    @property
    def read_only(self) -> bool:
        """True when the resident has no chase session to extend."""
        return self.session is None

    @property
    def health(self) -> str:
        """``quarantined`` after a failed ingest leg, ``degraded``
        while the last leg stopped short of fixpoint, else ``ok``."""
        if self.quarantine_reason is not None:
            return HEALTH_QUARANTINED
        if self.session is not None and self.stop_reason not in (
            None, "fixpoint"
        ):
            return HEALTH_DEGRADED
        return HEALTH_OK

    def quarantine(self, reason: str) -> None:
        """Freeze the resident read-only at its last published
        snapshot: queries keep answering, ingests refuse."""
        self.quarantine_reason = reason

    def note_query(self) -> None:
        with self._count_lock:
            self.queries += 1

    def note_ingest(self) -> None:
        with self._count_lock:
            self.ingests += 1

    # -- idempotency ---------------------------------------------------------

    def recorded_response(self, ingest_id: str) -> Optional[dict]:
        return self._acks.get(ingest_id)

    def record_response(self, ingest_id: str, response: dict) -> None:
        """Remember (and, when journaled, persist) the response a
        retried ``ingest_id`` replays.  Called under :attr:`lock`."""
        if self.journal is not None:
            self.journal.append_ack(ingest_id, response)
        self._acks[ingest_id] = response
        self._acks.move_to_end(ingest_id)
        while len(self._acks) > MAX_ACKS:
            self._acks.popitem(last=False)

    def describe(self) -> dict:
        out: Dict[str, object] = {
            "facts": self.snapshot.watermark,
            "read_only": self.read_only,
            "terminated": self.terminated,
            "health": self.health,
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
        return out


FactsInput = Union[str, Iterable[str]]


class ChaseService:
    """The transport-free server core: named residents + four verbs.

    ``request_timeout_s`` caps every per-request deadline (a request
    may ask for less, never more); ``cancel`` is the shared
    cancellation token every request budget carries — default a fresh
    one, flipped by :meth:`shutdown`.  ``admission`` is the overload
    gate (a default :class:`~repro.serve.admission.AdmissionController`
    when omitted).  ``default_kernel`` is the execution tier queries
    run on when a request names none (see
    :data:`repro.query.kernels.KERNELS` — the CLI's ``--kernel``).
    """

    def __init__(
        self,
        request_timeout_s: Optional[float] = 30.0,
        cancel: Optional[CancelToken] = None,
        admission=None,
        default_kernel: str = "tuple",
    ):
        from .admission import AdmissionController
        from ..query.kernels import KERNELS

        if default_kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {default_kernel!r}; expected one of "
                f"{KERNELS}"
            )
        # Every request without its own timeout_s gets this deadline,
        # so a bad one would fail every request (or, NaN, never trip).
        if request_timeout_s is not None and not request_timeout_s > 0:
            raise ValueError(
                f"request_timeout_s must be positive, got "
                f"{request_timeout_s}"
            )
        self.request_timeout_s = request_timeout_s
        self.cancel = cancel if cancel is not None else CancelToken()
        self.residents: Dict[str, Resident] = {}
        self.default_kernel = default_kernel
        self.admission = (
            admission if admission is not None else AdmissionController()
        )

    # -- registry ------------------------------------------------------------

    def add_session(
        self,
        name: str,
        session: ChaseSession,
        journal: Union[None, bool, str, IngestJournal] = None,
    ) -> Resident:
        """Register an extendable resident over a live chase session.

        ``journal`` attaches a write-ahead ingest journal: pass an
        :class:`~repro.storage.journal.IngestJournal`, a store
        directory path, or ``True`` to derive the directory from the
        session's checkpoint store.  Journaled deltas that were never
        acknowledged (the process died mid-ingest) are **replayed**
        through the session before the resident serves — see
        :meth:`recover`.
        """
        resident = self._register(Resident(name, session=session))
        if journal:
            if isinstance(journal, IngestJournal):
                resident.journal = journal
            else:
                store_dir = (
                    session.store_path if journal is True else journal
                )
                if store_dir is None:
                    raise ValueError(
                        "journal=True needs a session with a durable "
                        "checkpoint store"
                    )
                resident.journal = IngestJournal.attach(store_dir)
            resident._acks = OrderedDict(resident.journal.acked)
            self.recover(resident)
        return resident

    def add_readonly(
        self, name: str, instance: Instance,
        terminated: Optional[bool] = None,
    ) -> Resident:
        """Register a query-only resident (no ingest) over a bare
        instance — e.g. a store saved without chase state."""
        return self._register(
            Resident(name, instance=instance, terminated=terminated)
        )

    def _register(self, resident: Resident) -> Resident:
        if resident.name in self.residents:
            raise ValueError(f"duplicate resident {resident.name!r}")
        self.residents[resident.name] = resident
        return resident

    def _resident(self, name: Optional[str]) -> Resident:
        residents = self.residents
        if not residents:
            raise ServiceError("no residents are loaded", status=503)
        if name is None:
            if len(residents) == 1:
                return next(iter(residents.values()))
            default = residents.get("default")
            if default is not None:
                return default
            raise ServiceError(
                f"several residents are loaded "
                f"({', '.join(sorted(residents))}); "
                f"name one with 'resident'",
            )
        resident = residents.get(name)
        if resident is None:
            raise ServiceError(
                f"unknown resident {name!r} "
                f"(loaded: {', '.join(sorted(residents)) or 'none'})",
                status=404,
            )
        return resident

    # -- crash recovery ------------------------------------------------------

    def recover(self, resident: Resident) -> int:
        """Replay the resident's journaled-but-unacknowledged deltas
        (a previous process died between the WAL fsync and the chase
        checkpoint).  ``extend`` skips facts the interrupted leg
        already made durable, so replay is idempotent and the result
        is byte-identical to the uninterrupted run.  Returns the
        number of deltas replayed."""
        journal = resident.journal
        session = resident.session
        if journal is None or session is None or not journal.pending:
            return 0
        replayed = 0
        for ingest_id, facts in list(journal.pending.items()):
            with resident.lock:
                before = session.watermark
                steps_before = session.step_count
                try:
                    session.extend(facts)
                except Exception as exc:
                    resident.quarantine(
                        f"journal replay of {ingest_id!r} failed: {exc}"
                    )
                    break
                self._publish(resident)
                response = self._ingest_response(
                    resident, before, steps_before, None,
                    ingest_id=ingest_id,
                )
                resident.record_response(ingest_id, response)
                resident.note_ingest()
            replayed += 1
        return replayed

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
        resident: Optional[str] = None,
        certain: bool = False,
        kernel: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Answer a conjunctive query over the resident's published
        snapshot.

        ``text`` is the CLI query syntax — ``"q(X) :- e(X, Y)"``, or a
        bare conjunction for a boolean query.  ``certain`` filters to
        null-free answers (the certain answers whenever the resident's
        chase terminated).  ``kernel`` picks the execution tier (see
        :data:`repro.query.kernels.KERNELS`; default: the service-wide
        default, normally ``"tuple"``).  Answers render as atom text
        over the query's answer predicate, exactly like ``repro
        query``.
        """
        from ..query.kernels import KERNELS

        with self._admitted():
            target = self._resident(resident)
            snapshot = target.snapshot  # pin once: the request's world
            if kernel is None:
                kernel = self.default_kernel
            if kernel not in KERNELS:
                raise ServiceError(
                    f"unknown kernel {kernel!r}; expected one of "
                    f"{list(KERNELS)}"
                )
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
                "resident": target.name,
                "watermark": snapshot.watermark,
                "certain": certain,
            }
            if target.terminated is False:
                out["warning"] = (
                    "the resident chase has not terminated; answers are "
                    "computed over a partial instance"
                )
            if query.is_boolean():
                out["boolean"] = query.holds_in(
                    snapshot, kernel=kernel, budget=budget
                )
            else:
                if certain:
                    answers = query.certain_answers(
                        snapshot, kernel=kernel, budget=budget
                    )
                else:
                    answers = list(
                        query.answers(snapshot, kernel=kernel, budget=budget)
                    )
                name = query.name
                out["answers"] = [
                    atom_to_text(Atom(Predicate(name, len(answer)), answer))
                    for answer in answers
                ]
                out["count"] = len(answers)
            out["elapsed_s"] = round(budget.elapsed_s(), 6)
            target.note_query()
            return out

    def entail(
        self,
        text: str,
        *,
        resident: Optional[str] = None,
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
            target = self._resident(resident)
            snapshot = target.snapshot
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
                "resident": target.name,
                "watermark": snapshot.watermark,
                "atom": atom_to_text(atom),
                "entailed": entailed,
            }
            if not entailed and target.terminated is False:
                out["warning"] = (
                    "the resident chase has not terminated; a negative "
                    "entailment answer may be incomplete"
                )
            target.note_query()
            return out

    def ingest(
        self,
        facts: FactsInput,
        *,
        resident: Optional[str] = None,
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
        session's total step cap.

        ``ingest_id`` is the client's idempotency key: a repeated id
        is applied **at most once** and answered with the recorded
        response of the first application (``"replayed": true``).
        Journaled residents fsync the parsed delta before the chase
        runs, so a crash anywhere after this call was acked — and even
        mid-leg before the ack — is recovered by journal replay at the
        next ``serve --db`` start.
        """
        with self._admitted():
            target = self._resident(resident)
            session = target.session
            if session is None:
                raise ServiceError(
                    f"resident {target.name!r} is read-only (no chase "
                    f"state); ingest needs a session-backed resident",
                    status=409,
                )
            if ingest_id is not None:
                # An already-acknowledged retry replays even on a
                # quarantined resident — the effect *did* happen.
                recorded = target.recorded_response(ingest_id)
                if recorded is not None:
                    return dict(recorded, replayed=True)
            if target.health == HEALTH_QUARANTINED:
                raise ServiceError(
                    f"resident {target.name!r} is quarantined read-only "
                    f"({target.quarantine_reason}); restart the server "
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
            if target.journal is not None and ingest_id is None:
                # Journal replay needs a key even when the client sent
                # none; synthesize one (returned in the response).
                ingest_id = f"auto-{uuid.uuid4().hex}"
            self.admission.enter_ingest_queue(target)
            try:
                with target.lock:
                    if ingest_id is not None:
                        # Re-check under the lock: a concurrent retry
                        # of the same id may have just completed.
                        recorded = target.recorded_response(ingest_id)
                        if recorded is not None:
                            return dict(recorded, replayed=True)
                    if target.journal is not None:
                        # fsync-before-ack: the delta is durable before
                        # the chase sees it.
                        target.journal.append_delta(ingest_id, parsed)
                    # Chaos crash point: the window between WAL
                    # durability and the chase leg.
                    faults.serve_ingest_hook()
                    before = session.watermark
                    steps_before = session.step_count
                    try:
                        result = session.extend(
                            parsed, budget=budget, max_steps=max_steps,
                        )
                    except BudgetExceededError as exc:
                        # The leg stopped mid-flight on a budget: the
                        # session still holds a durable round-consistent
                        # prefix — republish it (with its stop reason)
                        # so readers see the true durable state instead
                        # of a stale pre-ingest snapshot.
                        target.snapshot = session.snapshot()
                        target.terminated = False
                        target.stop_reason = (
                            exc.stop_reason or session.stop_reason
                        )
                        raise
                    except Exception as exc:
                        # A non-budget mid-leg failure: the session's
                        # evaluation state can no longer be trusted.
                        # Quarantine the resident read-only at its last
                        # published snapshot; the journaled delta (no
                        # ack) replays after a restart.
                        target.quarantine(
                            f"ingest leg failed: {exc}"
                        )
                        raise ServiceError(
                            f"resident {target.name!r} quarantined: "
                            f"ingest leg failed ({exc}); reads continue "
                            f"at watermark {target.snapshot.watermark}",
                            status=503,
                        ) from exc
                    # Publish: one atomic attribute write; readers
                    # pinned to the old snapshot finish undisturbed,
                    # new requests see the maintained instance.
                    self._publish(target)
                    target.note_ingest()
                    response = self._ingest_response(
                        target, before, steps_before, budget,
                        ingest_id=ingest_id,
                    )
                    del result
                    if ingest_id is not None:
                        target.record_response(ingest_id, response)
                    return response
            finally:
                self.admission.leave_ingest_queue(target)

    def _publish(self, target: Resident) -> None:
        session = target.session
        target.snapshot = session.snapshot()
        target.terminated = session.terminated
        target.stop_reason = session.stop_reason

    @staticmethod
    def _ingest_response(
        target: Resident, before: int, steps_before: int,
        budget: Optional[Budget], ingest_id: Optional[str],
    ) -> dict:
        session = target.session
        response = {
            "resident": target.name,
            "watermark": target.snapshot.watermark,
            "new_facts": target.snapshot.watermark - before,
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
        service status is the *worst* resident state, degraded further
        while admission is actively shedding."""
        residents: Dict[str, str] = {
            name: resident.health
            for name, resident in self.residents.items()
        }
        status = HEALTH_OK
        if HEALTH_DEGRADED in residents.values():
            status = HEALTH_DEGRADED
        if self.admission.overloaded_recently():
            status = HEALTH_DEGRADED
        if HEALTH_QUARANTINED in residents.values():
            status = HEALTH_QUARANTINED
        draining = self.cancel.cancelled()
        out: Dict[str, object] = {
            "ok": status == HEALTH_OK and not draining,
            "status": status,
            "draining": draining,
            "residents": residents,
        }
        if status != HEALTH_OK:
            out["retry_after_s"] = round(
                self.admission.retry_after_s(), 3
            )
        return out

    def status(self) -> dict:
        """Service-level summary: one entry per resident."""
        return {
            "residents": {
                name: resident.describe()
                for name, resident in self.residents.items()
            },
            "request_timeout_s": self.request_timeout_s,
            "admission": self.admission.describe(),
            "shutting_down": self.cancel.cancelled(),
        }

    def shutdown(self) -> None:
        """Cooperatively cancel in-flight requests (their budgets share
        the service token) and mark the service as stopping."""
        self.cancel.cancel()

    def close(self) -> None:
        """Shut down and close every resident session."""
        self.shutdown()
        for resident in self.residents.values():
            if resident.session is not None:
                resident.session.close()
