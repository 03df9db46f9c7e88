"""Correctness checks, run outside the timed ops.

Each check takes what a user-facing command produced (exit code and
captured stdout, or HTTP responses) and recomputes the answer through
independent code paths of the library.  A check returns ``None`` when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

#: Step budgets of the independent re-computations.  They are far above
#: what any generated input needs, so hitting one is itself a failure.
ORACLE_STEPS = 50_000
REPLAY_CAP = 50_000
SCRATCH_STEPS = 1_000_000

#: Forced procedures per narrowest class (SL ⊆ L ⊆ G): each must
#: reproduce the front door's verdict.  ``method="linear"`` runs the
#: guarded type-graph procedure under another name, so the type-based
#: procedure runs once, as ``"guarded"``; it is last so that its
#: pumping witness is the one replayed.
FORCED_METHODS = {
    "simple_linear": ("simple_linear", "guarded"),
    "linear": ("guarded",),
    "guarded": ("guarded",),
}


def check_decide(entry: Dict, rules_text: str, code: int) -> Optional[str]:
    """``repro check`` exits 0 (terminating) or 1 (non-terminating).
    The verdict must match the family's known verdict, every forced
    procedure that applies, and its certificate: a terminating critical
    chase, or a pumping witness that replays on the concrete chase."""
    from repro.classes import narrowest_class
    from repro.parser import parse_program
    from repro.termination import (
        confirm_witness,
        critical_chase_terminates,
        decide_termination,
    )

    if code not in (0, 1):
        return f"exit code {code}"
    terminating = code == 0
    if entry["expect"] is not None and entry["expect"] != terminating:
        return f"verdict {terminating} != known {entry['expect']}"
    rules = parse_program(rules_text)
    cls = narrowest_class(rules)
    if cls not in FORCED_METHODS:
        return f"generated rule set is {cls}"
    witness = None
    for method in FORCED_METHODS[cls]:
        verdict = decide_termination(rules, method=method)
        if verdict.terminating != terminating:
            return f"method={method} says {verdict.terminating}"
        witness = verdict.witness
    if terminating:
        if not critical_chase_terminates(
                rules, "semi_oblivious", max_steps=ORACLE_STEPS):
            return "critical chase did not reach a fixpoint"
    elif witness is None or not confirm_witness(
            rules, witness, max_steps_cap=REPLAY_CAP):
        return "pumping witness did not replay"
    return None


def answer_lines(out: str) -> List[str]:
    """The answer atoms of ``repro query`` output (``%`` lines are
    status lines)."""
    return [line for line in out.splitlines()
            if line and not line.startswith("%")]


def components(atoms) -> List[List]:
    """``atoms`` grouped into the connected components of their shared
    terms (two atoms are connected when they share a term)."""
    parent = {}

    def find(term):
        parent.setdefault(term, term)
        while parent[term] != term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    for atom in atoms:
        root = find(atom.terms[0])
        for term in atom.terms[1:]:
            other = find(term)
            if other != root:
                parent[other] = root
    groups = defaultdict(list)
    for atom in atoms:
        groups[find(atom.terms[0])].append(atom)
    return list(groups.values())


def check_materialize(entry: Dict, rules_text: str, db_text: str,
                      code: int, out: str) -> Optional[str]:
    """The printed answers must equal a ``naive_homomorphisms``
    evaluation over a fresh restricted chase of the same input.

    The query is connected, so every match maps it into one connected
    component of the facts of its predicates; evaluating it on each
    component alone gives the same answers as on the whole instance,
    without the nested-loop scan across components that would make
    this check cost more than the run's timed ops."""
    from repro.chase import run_chase
    from repro.model import Atom, Instance, Predicate
    from repro.model.homomorphism import naive_homomorphisms
    from repro.parser import (
        atom_to_text,
        parse_database,
        parse_program,
        parse_query,
    )

    if code != 0:
        return f"exit code {code}"
    got = answer_lines(out)
    footer = out.rstrip("\n").rsplit("\n", 1)[-1]
    if footer != f"% {len(got)} answers":
        return f"footer {footer!r} for {len(got)} answer lines"
    result = run_chase(parse_database(db_text), parse_program(rules_text),
                       "restricted", max_steps=SCRATCH_STEPS)
    if not result.terminated:
        return "reference chase did not terminate"
    query = parse_query(entry["query"])
    if len(components(query.atoms)) != 1:
        return f"query {entry['query']!r} is not connected"
    predicate = Predicate(query.name, len(query.answer_variables))
    facts = [fact for pred in {atom.predicate for atom in query.atoms}
             for fact in result.instance.facts_with_predicate(pred)]
    expected = {
        atom_to_text(Atom(predicate, [match[v]
                                      for v in query.answer_variables]))
        for component in components(facts)
        for match in naive_homomorphisms(query.atoms, Instance(component))
    }
    if len(got) != len(set(got)) or set(got) != expected:
        return (f"{len(got)} answers printed, {len(expected)} expected, "
                f"{len(set(got) ^ expected)} differ")
    return None


#: The final queries of every serve segment.  The first joins through
#: the invented keys and offices and returns constants only (certain
#: answers, comparable across chases); the second counts every
#: ``located`` fact, nulls included.
SERVE_FINAL_CERTAIN = ("q(X, D) :- works(X, K), dkey(D, K), "
                       "located(X, O), office(K, O)")
SERVE_FINAL_COUNT = "q(X, O) :- located(X, O)"


def serve_reference(rules_text: str, db_text: str,
                    deltas: List[List[str]]) -> Dict:
    """Certain answers and the ``located`` count of a from-scratch
    chase over the base facts plus every ingested delta."""
    from repro.chase import run_chase
    from repro.parser import (
        atom_to_text,
        parse_database,
        parse_fact,
        parse_program,
        parse_query,
    )
    from repro.model import Atom, Predicate

    database = parse_database(db_text)
    for delta in deltas:
        for fact in delta:
            database.add(parse_fact(fact))
    result = run_chase(database, parse_program(rules_text), "restricted",
                       max_steps=SCRATCH_STEPS)
    if not result.terminated:
        raise RuntimeError("reference chase did not terminate")
    certain = parse_query(SERVE_FINAL_CERTAIN)
    predicate = Predicate(certain.name, len(certain.answer_variables))
    return {
        "certain": sorted(atom_to_text(Atom(predicate, row))
                          for row in certain.certain_answers(result.instance)),
        "count": len(list(parse_query(SERVE_FINAL_COUNT).answers(
            result.instance))),
    }
