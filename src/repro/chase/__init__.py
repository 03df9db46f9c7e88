"""Chase engines: oblivious, semi-oblivious, and restricted, plus
critical instances and trigger machinery.

The public names below resolve on first access (:mod:`repro._lazy`):
``import repro.chase`` alone loads no engine, and the durable
checkpoint and incremental-session layers load only when used."""

from .. import _lazy

__all__ = [
    "CRITICAL_CONSTANT",
    "ChaseResult",
    "ChaseStep",
    "ChaseVariant",
    "ChaseSession",
    "Checkpointer",
    "DEFAULT_MAX_STEPS",
    "DeltaEngine",
    "ONE_CONSTANT",
    "ONE_PREDICATE",
    "Trigger",
    "ZERO_CONSTANT",
    "ZERO_PREDICATE",
    "all_triggers",
    "apply_trigger",
    "critical_domain",
    "critical_instance",
    "delta_triggers",
    "extend_chase",
    "head_satisfied",
    "load_state",
    "resource_stats",
    "resume_chase",
    "run_chase",
    "standard_critical_instance",
    "triggers_for_rule",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".critical": (
        "CRITICAL_CONSTANT",
        "ONE_CONSTANT",
        "ONE_PREDICATE",
        "ZERO_CONSTANT",
        "ZERO_PREDICATE",
        "critical_domain",
        "critical_instance",
        "standard_critical_instance",
    ),
    ".checkpoint": ("Checkpointer", "load_state"),
    ".delta": ("DeltaEngine", "delta_triggers"),
    ".incremental": ("ChaseSession", "extend_chase"),
    ".engine": (
        "DEFAULT_MAX_STEPS",
        "resource_stats",
        "resume_chase",
        "run_chase",
    ),
    ".result": ("ChaseResult", "ChaseStep"),
    ".triggers": (
        "ChaseVariant",
        "Trigger",
        "all_triggers",
        "apply_trigger",
        "head_satisfied",
        "triggers_for_rule",
    ),
})
