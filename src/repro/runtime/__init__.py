"""Runtime governance: resource budgets, cancellation, fault injection.

The chase is undecidable in general, so the engine's honest interface
is "run until fixpoint **or** a resource limit, and always say which".
This package supplies the *which*:

* :mod:`repro.runtime.budget` — :class:`Budget` (wall-clock deadline,
  round/fact caps, memory ceiling) and :class:`CancelToken`
  (cooperative cancellation), checked by every round-based engine at
  round/batch boundaries;
* :mod:`repro.runtime.faults` — a deterministic fault-injection
  harness (allocation spikes, server crashes mid-ingest, torn journal
  writes, slow requests) driven by the ``REPRO_FAULTS`` environment
  variable, so a server subprocess sees the same fault plan as the
  test that started it.  Used by the fault-path test suites; inert
  unless the variable is set.
"""

from .budget import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_FIXPOINT,
    STOP_MEMORY,
    STOP_REASONS,
    STOP_STEP_BUDGET,
    Budget,
    CancelToken,
    working_set_bytes,
)

__all__ = [
    "Budget",
    "CancelToken",
    "STOP_CANCELLED",
    "STOP_DEADLINE",
    "STOP_FIXPOINT",
    "STOP_MEMORY",
    "STOP_REASONS",
    "STOP_STEP_BUDGET",
    "working_set_bytes",
]
