"""Resource budgets and cooperative cancellation.

A :class:`Budget` is the structured alternative to "hope it finishes":
it carries a wall-clock deadline, round and fact caps, a working-set
memory ceiling, and a :class:`CancelToken`, and every round-based
engine checks it at round/batch boundaries.  A tripped budget never
interrupts a mutation — engines stop *between* trigger applications —
so a budget-stopped :class:`~repro.chase.result.ChaseResult` is always
round-consistent: the instance equals the database plus exactly the
facts of the recorded steps.

Stop reasons form a small closed vocabulary (:data:`STOP_REASONS`);
``Budget.check`` returns the first reason that applies and records it
(sticky — once tripped, a budget stays tripped), so layered callers
(engine → decider → CLI) all report the same verdict.

The clock is injectable, which is how the test suite produces
deterministic mid-round deadline stops without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..errors import BudgetExceededError
from . import faults

STOP_FIXPOINT = "fixpoint"
STOP_STEP_BUDGET = "step_budget"
STOP_DEADLINE = "deadline"
STOP_MEMORY = "memory"
STOP_CANCELLED = "cancelled"

#: Every value ``ChaseResult.stop_reason`` (and the CLI's exit-code
#: table) can take, in roughly increasing severity.
STOP_REASONS = (
    STOP_FIXPOINT,
    STOP_STEP_BUDGET,
    STOP_DEADLINE,
    STOP_MEMORY,
    STOP_CANCELLED,
)

_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = __import__("resource").getpagesize()
except Exception:  # pragma: no cover - non-POSIX fallback
    pass


def working_set_bytes() -> Optional[int]:
    """This process's resident working set, or ``None`` when no probe
    is available.

    Probes in order of fidelity: ``/proc/self/statm`` (current RSS,
    Linux), ``ru_maxrss`` (peak RSS, other POSIX), and tracemalloc
    (Python-level allocations, only when tracing is already on — the
    probe never *starts* tracing, which would slow the run it is
    guarding).  Fault-injected allocation spikes
    (:func:`repro.runtime.faults.alloc_spike_bytes`) are added on top.
    """
    spike = faults.alloc_spike_bytes()
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * _PAGE_SIZE + spike
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes; either way this is a
        # peak, i.e. a sound over-approximation of the current set.
        import sys

        scale = 1 if sys.platform == "darwin" else 1024
        return peak_kb * scale + spike
    except Exception:  # pragma: no cover - no resource module
        pass
    try:
        import tracemalloc

        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[0] + spike
    except Exception:  # pragma: no cover
        pass
    return spike if spike else None


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Create one, hand it to a :class:`Budget`, and call :meth:`cancel`
    from any thread (or a signal handler); the governed run stops at
    its next budget check with ``stop_reason == "cancelled"``.
    """

    __slots__ = ("_event",)

    def __init__(self):
        import threading

        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled() else "live"
        return f"CancelToken({state})"


class Budget:
    """A resource envelope for one governed run.

    Accepted limits: ``timeout_s`` (wall-clock deadline from
    ``start()``), ``max_memory_mb`` (process working-set ceiling),
    ``max_rounds`` (chase/saturation rounds), and a shared
    :class:`CancelToken` via ``cancel`` — cancelling the token stops
    every run whose budget carries it at the next check.  Pass one to
    ``run_chase``/``decide_termination``/query evaluation ::

        budget = Budget(timeout_s=5.0, max_memory_mb=512)
        result = run_chase(db, rules, "restricted", budget=budget)
        result.stop_reason   # "fixpoint", or what tripped

    All limits are optional; an all-``None`` budget still provides
    cancellation and resource accounting.  ``clock`` must be a
    monotonic zero-argument callable (injectable for deterministic
    tests).  ``check`` is sticky: the first limit to trip is the
    run's stop reason, and every later check returns it unchanged.
    Engines probe between trigger applications, so a tripped budget
    always yields a round-consistent partial result.

    Memory is probed at most every ``memory_check_every`` checks
    (reading ``/proc`` per chase step would be the overhead the bench
    gate forbids); deadline and cancellation are probed every check.
    """

    __slots__ = (
        "timeout_s",
        "max_rounds",
        "max_facts",
        "max_memory_mb",
        "cancel",
        "rounds",
        "stop_reason",
        "memory_check_every",
        "_clock",
        "_started_at",
        "_deadline",
        "_checks",
        "_last_memory",
    )

    def __init__(
        self,
        timeout_s: Optional[float] = None,
        max_rounds: Optional[int] = None,
        max_facts: Optional[int] = None,
        max_memory_mb: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
        clock: Callable[[], float] = time.monotonic,
        memory_check_every: int = 16,
    ):
        for name, value in (
            ("timeout_s", timeout_s),
            ("max_rounds", max_rounds),
            ("max_facts", max_facts),
            ("max_memory_mb", max_memory_mb),
        ):
            if value is not None and not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive, got {value}")
        self.timeout_s = timeout_s
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.max_memory_mb = max_memory_mb
        self.cancel = cancel if cancel is not None else CancelToken()
        self.rounds = 0
        self.stop_reason: Optional[str] = None
        self.memory_check_every = memory_check_every
        self._clock = clock
        self._started_at: Optional[float] = None
        self._deadline: Optional[float] = None
        self._checks = 0
        self._last_memory: Optional[int] = None

    def start(self) -> "Budget":
        """Arm the deadline; idempotent (the first caller wins, so a
        budget threaded through nested calls keeps one epoch)."""
        if self._started_at is None:
            self._started_at = self._clock()
            if self.timeout_s is not None:
                self._deadline = self._started_at + self.timeout_s
        return self

    def note_round(self) -> None:
        """Record one completed engine round (for stats and the
        ``max_rounds`` cap)."""
        self.rounds += 1

    def elapsed_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining_s(self) -> Optional[float]:
        """Seconds left until the wall-clock deadline, floored at 0.0,
        or ``None`` when the budget has no deadline (or has not been
        started yet).  Per-request callers — the query server hands
        every request ``Budget(timeout_s=...)`` — use this to report
        how much of a deadline a finished request had to spare."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def check(self, facts: Optional[int] = None) -> Optional[str]:
        """The stop reason that applies now, or ``None`` to keep going.

        Probe order is cheapest-first: cancellation flag, round/fact
        caps, deadline, then (throttled) the memory ceiling.
        """
        reason = self.stop_reason
        if reason is not None:
            return reason
        self._checks += 1
        if self.cancel.cancelled():
            reason = STOP_CANCELLED
        elif self.max_rounds is not None and self.rounds >= self.max_rounds:
            reason = STOP_STEP_BUDGET
        elif (
            self.max_facts is not None
            and facts is not None
            and facts >= self.max_facts
        ):
            reason = STOP_STEP_BUDGET
        elif self._deadline is not None and self._clock() >= self._deadline:
            reason = STOP_DEADLINE
        elif self.max_memory_mb is not None and (
            self._checks % self.memory_check_every == 1
            or self.memory_check_every == 1
        ):
            measured = working_set_bytes()
            if measured is not None:
                self._last_memory = measured
                if measured > self.max_memory_mb * 1024 * 1024:
                    reason = STOP_MEMORY
        self.stop_reason = reason
        return reason

    def raise_if_exceeded(self, facts: Optional[int] = None) -> None:
        """``check``, but raising :class:`BudgetExceededError` — the
        form the verdict-returning deciders use (their "result" is an
        exception carrying the stop reason, not a partial instance)."""
        reason = self.check(facts=facts)
        if reason is not None:
            raise BudgetExceededError(
                f"resource budget exhausted ({reason}) after "
                f"{self.elapsed_s():.3f}s and {self.rounds} rounds",
                stop_reason=reason,
                stats=self.stats(),
            )

    def stats(self) -> Dict[str, object]:
        """Resource accounting for results and summaries."""
        out: Dict[str, object] = {
            "elapsed_s": round(self.elapsed_s(), 6),
            "rounds": self.rounds,
            "budget_checks": self._checks,
        }
        if self._last_memory is not None:
            out["memory_mb"] = round(self._last_memory / (1024 * 1024), 3)
        limits = {}
        if self.timeout_s is not None:
            limits["timeout_s"] = self.timeout_s
        if self.max_rounds is not None:
            limits["max_rounds"] = self.max_rounds
        if self.max_facts is not None:
            limits["max_facts"] = self.max_facts
        if self.max_memory_mb is not None:
            limits["max_memory_mb"] = self.max_memory_mb
        if limits:
            out["limits"] = limits
        return out

    def __repr__(self) -> str:
        parts = []
        if self.timeout_s is not None:
            parts.append(f"timeout_s={self.timeout_s}")
        if self.max_rounds is not None:
            parts.append(f"max_rounds={self.max_rounds}")
        if self.max_facts is not None:
            parts.append(f"max_facts={self.max_facts}")
        if self.max_memory_mb is not None:
            parts.append(f"max_memory_mb={self.max_memory_mb}")
        if self.stop_reason is not None:
            parts.append(f"stop_reason={self.stop_reason!r}")
        return f"Budget({', '.join(parts)})"
