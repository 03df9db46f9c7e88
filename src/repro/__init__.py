"""repro — chase termination for guarded existential rules.

A production-quality reproduction of

    Marco Calautti, Georg Gottlob, Andreas Pieris.
    "Chase Termination for Guarded Existential Rules", PODS 2015.

The library provides:

* a logical model of TGDs (existential rules), instances, and
  homomorphisms (:mod:`repro.model`);
* fair oblivious / semi-oblivious / restricted chase engines, critical
  instances, durable checkpoint/resume, and resident sessions with
  incremental maintenance (:mod:`repro.chase`);
* weak/rich acyclicity and the dependency graphs behind them
  (:mod:`repro.graphs`);
* the paper's termination deciders for simple-linear, linear, and
  guarded rule sets, with checkable certificates
  (:mod:`repro.termination`);
* propositional atom entailment and the looping-operator reduction
  (:mod:`repro.entailment`);
* runtime governance — resource budgets, cooperative cancellation,
  and deterministic fault injection (:mod:`repro.runtime`);
* conjunctive queries and certain answers through a cost-based planner
  (:mod:`repro.query`, :mod:`repro.cq`), data exchange on top of the
  chase (:mod:`repro.exchange`), durable fact stores
  (:mod:`repro.storage`), an HTTP query server with incremental
  chase maintenance (:mod:`repro.serve`), a rule text format
  (:mod:`repro.parser`), and seeded workload generators
  (:mod:`repro.workloads`).

Quickstart::

    from repro import parse_program, decide_termination

    rules = parse_program("person(X) -> exists Y . father(X, Y), person(Y)")
    verdict = decide_termination(rules, variant="semi_oblivious")
    assert not verdict.terminating

Chase a database and read off certain answers::

    from repro import parse_database, parse_query, run_chase

    db = parse_database("person(ada)")
    result = run_chase(db, rules, "restricted")
    query = parse_query("q(X) :- father(X, Y)")
    answers = query.certain_answers(result.instance)

The narrative documentation lives in ``docs/ARCHITECTURE.md`` (the
engine, package by package, with its invariants) and ``docs/CLI.md``
(the ``python -m repro`` command reference).

The names below resolve on first access (:mod:`repro._lazy`):
``import repro`` loads none of the subpackages until one of their names
is read.
"""

from . import _lazy

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Budget",
    "CancelToken",
    "ChaseResult",
    "ChaseSession",
    "ChaseVariant",
    "CompiledQuery",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "FactStore",
    "Instance",
    "Null",
    "Predicate",
    "STOP_REASONS",
    "Schema",
    "TGD",
    "TerminationVerdict",
    "Variable",
    "__version__",
    "classify",
    "critical_instance",
    "decide_termination",
    "extend_chase",
    "is_richly_acyclic",
    "is_weakly_acyclic",
    "narrowest_class",
    "open_instance",
    "parse_atom",
    "parse_database",
    "parse_program",
    "parse_query",
    "parse_rule",
    "program_to_text",
    "resume_chase",
    "rule_to_text",
    "run_chase",
    "standard_critical_instance",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".chase": (
        "ChaseResult",
        "ChaseSession",
        "ChaseVariant",
        "critical_instance",
        "extend_chase",
        "resume_chase",
        "run_chase",
        "standard_critical_instance",
    ),
    ".classes": ("classify", "narrowest_class"),
    ".graphs": ("is_richly_acyclic", "is_weakly_acyclic"),
    ".model": (
        "Atom",
        "Constant",
        "Database",
        "Instance",
        "Null",
        "Predicate",
        "Schema",
        "TGD",
        "Variable",
    ),
    ".parser": (
        "parse_atom",
        "parse_database",
        "parse_program",
        "parse_query",
        "parse_rule",
        "program_to_text",
        "rule_to_text",
    ),
    ".cq": ("ConjunctiveQuery",),
    ".query": ("CompiledQuery",),
    ".runtime": ("STOP_REASONS", "Budget", "CancelToken"),
    ".storage": ("FactStore", "open_instance"),
    ".termination": ("TerminationVerdict", "decide_termination"),
})
