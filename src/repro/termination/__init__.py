"""The paper's termination deciders and their machinery.

The public names resolve on first access (:mod:`repro._lazy`), so
``import repro.termination`` loads only the procedures a caller uses:
the MFA, replay and report layers stay unloaded until needed.
"""

from .. import _lazy

__all__ = [
    "AtomPattern",
    "BagType",
    "ChildEdge",
    "DEFAULT_MAX_TYPES",
    "DEFAULT_MFA_STEPS",
    "DEFAULT_ORACLE_STEPS",
    "FRESH",
    "PatternCloud",
    "SkolemTerm",
    "PumpingWitness",
    "ReplayResult",
    "TerminationReport",
    "TerminationVerdict",
    "TransitionGraph",
    "TypeAnalysis",
    "alive_edge_fixpoint",
    "confirm_witness",
    "critical_chase_terminates",
    "decide_guarded",
    "decide_linear",
    "decide_restricted_single_head",
    "decide_simple_linear",
    "decide_termination",
    "decide_termination_on",
    "find_pumping_witness",
    "is_mfa",
    "mfa_witness",
    "naive_pattern_homomorphisms",
    "pattern_homomorphisms",
    "skolem_chase",
    "is_critically_richly_acyclic",
    "is_critically_weakly_acyclic",
    "oracle_verdict",
    "renewable_classes",
    "restricted_rule_graph",
    "termination_report",
    "verify_cyclic_walk",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".abstraction": (
        "FRESH",
        "AtomPattern",
        "BagType",
        "PatternCloud",
        "naive_pattern_homomorphisms",
        "pattern_homomorphisms",
    ),
    ".decider": ("decide_termination",),
    ".guarded": ("decide_guarded",),
    ".instance_level": ("decide_termination_on",),
    ".mfa": (
        "DEFAULT_MFA_STEPS",
        "SkolemTerm",
        "is_mfa",
        "mfa_witness",
        "skolem_chase",
    ),
    ".linear": (
        "decide_linear",
        "is_critically_richly_acyclic",
        "is_critically_weakly_acyclic",
    ),
    ".oracle": (
        "DEFAULT_ORACLE_STEPS",
        "critical_chase_terminates",
        "oracle_verdict",
    ),
    ".pumping": (
        "PumpingWitness",
        "alive_edge_fixpoint",
        "find_pumping_witness",
        "renewable_classes",
        "verify_cyclic_walk",
    ),
    ".replay": ("ReplayResult", "confirm_witness"),
    ".report": ("TerminationReport", "termination_report"),
    ".restricted_sh": (
        "decide_restricted_single_head",
        "restricted_rule_graph",
    ),
    ".saturation": ("DEFAULT_MAX_TYPES", "ChildEdge", "TypeAnalysis"),
    ".sl": ("decide_simple_linear",),
    ".transitions": ("TransitionGraph",),
    ".verdict": ("TerminationVerdict",),
})
