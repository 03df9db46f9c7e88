"""Golden record of the serial chase's output.

Every chase runs one round loop: :meth:`DeltaEngine.next_round`
discovers a round in canonical order (rule-major, then pivot position,
then fact insertion order) and the engine applies it trigger by
trigger.  ``tests/data/chase_golden.json`` pins what that loop
produces for a corpus of programs — the fixpoint chase under every
variant, a shape whose discovery order depends on the join order, the
Skolem chase behind MFA, and incremental sessions fed deltas — as a
sha256 over the run's fingerprint: facts in
insertion order (so null numbering), trigger keys, the facts each step
added and the per-rule fact counts.  The step and fact counts and the
stop reason are recorded in the clear, so a drift says what moved.

The record was made while the threaded and process round executors
still existed and were checked byte-identical to the serial loop; it
holds the one remaining path to that same output.

Regenerate only on purpose, when the output itself is meant to change::

    PYTHONPATH=src python tests/test_chase_golden.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.chase import (
    ChaseSession,
    ChaseVariant,
    critical_instance,
    run_chase,
)
from repro.cli import main
from repro.model import Atom, Constant, Database, Predicate, TGD, Variable
from repro.parser import (
    instance_to_text,
    parse_database,
    parse_fact,
    parse_program,
    program_to_text,
)
from repro.termination import skolem_chase
from repro.workloads import guarded_tower_family, random_guarded

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "chase_golden.json")

VARIANTS = (
    ChaseVariant.OBLIVIOUS,
    ChaseVariant.SEMI_OBLIVIOUS,
    ChaseVariant.RESTRICTED,
)


def _guarded_ontology():
    """Multi-atom guarded bodies with a fresh null per level."""
    r1, m1 = Predicate("r1", 2), Predicate("m1", 1)
    database = Database()
    for i in range(12):
        database.add(Atom(r1, [Constant(f"c{i}"), Constant(f"d{i}")]))
        database.add(Atom(m1, [Constant(f"d{i}")]))
    return guarded_tower_family(3), database


def _planner_shape():
    """Two stages of three-atom bodies whose rest-of-body joins the
    cost order would nest differently from the syntactic order the
    chase uses, so a cost-ordered discovery numbers nulls differently
    (the shape ``repro query`` once chased under that order)."""
    X, Y, Z, W, S = (Variable(v) for v in "XYZWS")
    p, q, r, s, out = (Predicate("p", 1), Predicate("q", 2),
                       Predicate("r", 2), Predicate("s", 2),
                       Predicate("out", 4))
    rules = [
        TGD([Atom(p, [X]), Atom(q, [Y, Constant("k")]), Atom(r, [X, Z])],
            [Atom(s, [X, W])]),
        TGD([Atom(s, [X, S]), Atom(q, [Y, Constant("k")]), Atom(r, [X, Z])],
            [Atom(out, [S, Y, Z, W])]),
    ]
    database = Database()
    database.add(Atom(q, [Constant("y0"), Constant("k")]))
    database.add(Atom(q, [Constant("y1"), Constant("k")]))
    for i in range(4):
        database.add(Atom(p, [Constant(f"x{i}")]))
        for j in range(3):
            database.add(Atom(r, [Constant(f"x{i}"), Constant(f"z{j}")]))
    return rules, database


def _parsed(program, database):
    return lambda: (parse_program(program), parse_database(database))


# name -> (build() -> (rules, database), max_steps); each runs under
# every variant.
PROGRAMS = {
    "self_feeding_existential": (_parsed(
        "e(X, Y), e(Y, Z) -> exists W . e(Z, W)\ne(X, Y) -> p(Y, X)",
        "e(a, b)\ne(b, c)\ne(c, a)",
    ), 300),
    "transitive_closure": (_parsed(
        "e(X, Y), e(Y, Z) -> e(X, Z)",
        "\n".join(f"e(c{i}, c{i + 1})" for i in range(12)),
    ), 10_000),
    "restricted_with_joins": (_parsed(
        "r(X, Y), s(Y, Z) -> exists W . t(X, W)\nt(X, W) -> s(W, X)",
        "r(a, b)\nr(c, b)\ns(b, d)\ns(b, e)",
    ), 10_000),
    # Skip-heavy under the restricted variant: once one t-witness
    # exists for a value, later triggers for it are satisfied.
    "satisfied_heads": (_parsed(
        "r(X, Y), s(Y, Z) -> exists W . t(X, W)\n"
        "t(X, W) -> s(W, X)\n"
        "s(Y, Z) -> exists W . t(Z, W)",
        "\n".join(f"r(a{i}, b{i % 3})" for i in range(9)) + "\n"
        + "\n".join(f"s(b{j}, d{j})" for j in range(3)),
    ), 10_000),
    "existential_cycle": (_parsed(
        "e(X, Y), e(Y, Z) -> exists W . t(X, W)\nt(X, W) -> e(W, X)",
        "\n".join(f"e(c{i}, c{i + 1})" for i in range(8)),
    ), 1_000),
    "guarded_ontology": (_guarded_ontology, 10_000),
}

CHASE_CASES = [f"{name}/{variant}" for name in PROGRAMS
               for variant in VARIANTS]
PLANNER_CASES = ["planner_shape/heuristic"]

SKOLEM_CASES = {
    "fixpoint": ("a(X), b(X, Y) -> exists Z . h(X, Z)\nh(X, Z) -> b(X, Z)",
                 None),
    "cyclic": ("p(X, Y) -> exists Z . p(Y, Z)", None),
    "random_guarded/0": (0, 4000),
    "random_guarded/1": (1, 4000),
    "random_guarded/2": (2, 4000),
}

# The schedule of tests/test_incremental.py: a base, then two deltas.
SESSION_RULES = """
emp(X, D) -> exists M . mgr(D, M)
mgr(D, M), emp(E, D) -> rep(E, M)
rep(E, M), rep(M, T) -> rep(E, T)
rep(E, M), rep(F, M) -> peer(E, F)
"""
SESSION_BASE = "emp(ann, sales)\nemp(bob, sales)"
SESSION_DELTAS = (("emp(cam, ops)", "emp(dee, ops)"), ("emp(eve, sales)",))


def digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def result_record(result):
    variant = result.variant
    fingerprint = (
        result.instance.facts(),
        [step.trigger.key(variant) for step in result.steps],
        [step.new_facts for step in result.steps],
        result.facts_by_rule(),
    )
    return {
        "terminated": result.terminated,
        "stop_reason": result.stop_reason,
        "steps": result.step_count,
        "facts": len(result.instance),
        "sha256": digest(fingerprint),
    }


def chase_record(case):
    name, variant = case.split("/")
    build, max_steps = PROGRAMS[name]
    rules, database = build()
    return result_record(run_chase(database, rules, variant, max_steps))


def planner_record(case):
    rules, database = _planner_shape()
    return result_record(run_chase(
        database, rules, ChaseVariant.OBLIVIOUS, max_steps=500,
    ))


def skolem_record(case):
    source, max_steps = SKOLEM_CASES[case]
    if isinstance(source, int):
        rules = random_guarded(3, seed=source)
    else:
        rules = parse_program(source)
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    instance, cyclic, fixpoint = skolem_chase(
        critical_instance(rules), rules, **kwargs
    )
    return {
        "cyclic": None if cyclic is None else repr(cyclic),
        "fixpoint": fixpoint,
        "facts": len(instance),
        "sha256": digest(instance.facts()),
    }


def session_record(variant):
    session = ChaseSession.start(
        parse_database(SESSION_BASE), parse_program(SESSION_RULES),
        variant=variant,
    )
    with session:
        for delta in SESSION_DELTAS:
            session.extend([parse_fact(fact) for fact in delta])
        fingerprint = (
            session.instance.facts(),
            [s.trigger.key(variant) for s in session._steps],
            [s._ordinals for s in session._steps],
        )
        return {
            "terminated": session.terminated,
            "steps": len(session._steps),
            "facts": len(session.instance),
            "sha256": digest(fingerprint),
        }


def record():
    return {
        "chase": {case: chase_record(case) for case in CHASE_CASES},
        "planner": {case: planner_record(case) for case in PLANNER_CASES},
        "skolem": {case: skolem_record(case) for case in SKOLEM_CASES},
        "session": {variant: session_record(variant)
                    for variant in VARIANTS},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_record_covers_the_corpus(golden):
    assert sorted(golden["chase"]) == sorted(CHASE_CASES)
    assert sorted(golden["planner"]) == sorted(PLANNER_CASES)
    assert sorted(golden["skolem"]) == sorted(SKOLEM_CASES)
    assert sorted(golden["session"]) == sorted(VARIANTS)


@pytest.mark.parametrize("case", CHASE_CASES)
def test_chase_matches_the_golden_record(golden, case):
    assert chase_record(case) == golden["chase"][case]


@pytest.mark.parametrize("case", PLANNER_CASES)
def test_planned_chase_matches_the_golden_record(golden, case):
    assert planner_record(case) == golden["planner"][case]


@pytest.mark.parametrize("variant", ["o", "so", "r"])
def test_query_chases_what_chase_prints(tmp_path, capsys, variant):
    # query and chase share one discovery order, so the out facts the
    # query answers carry the null labels chase prints.
    rules, database = _planner_shape()
    rules_file = tmp_path / "shape.tgd"
    rules_file.write_text(program_to_text(rules) + "\n")
    db_file = tmp_path / "shape.facts"
    db_file.write_text(instance_to_text(database) + "\n")
    files = [str(rules_file), str(db_file)]

    assert main(["chase", *files, "--variant", variant]) == 0
    chased = [line[len("out"):] for line in
              capsys.readouterr().out.splitlines()
              if line.startswith("out(")]
    assert main(["query", *files, "q(S, Y, Z, W) :- out(S, Y, Z, W)",
                 "--variant", variant]) == 0
    answered = [line[len("q"):] for line in
                capsys.readouterr().out.splitlines()
                if line.startswith("q(")]
    assert chased
    # chase prints its facts sorted; query prints in match order.
    assert sorted(answered) == chased


@pytest.mark.parametrize("case", sorted(SKOLEM_CASES))
def test_skolem_chase_matches_the_golden_record(golden, case):
    assert skolem_record(case) == golden["skolem"][case]


@pytest.mark.parametrize("variant", VARIANTS)
def test_incremental_session_matches_the_golden_record(golden, variant):
    assert session_record(variant) == golden["session"][variant]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_chase_golden.py --record")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
