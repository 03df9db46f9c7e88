"""Seeded random rule-set generators.

Used by the property-based tests and the benchmarks to sample SL / L /
G programs with controllable shape.  All generators take an integer
``seed`` and are fully deterministic for a given argument tuple.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..model import Atom, Constant, Predicate, TGD, Term, Variable


def _rng(*key) -> random.Random:
    """A generator seeded by the arguments ``key``.  ``random`` turns a
    string seed into an int through SHA-512, so the stream is the same
    in every process; ``hash()`` of a tuple holding strings is salted
    per process (``PYTHONHASHSEED``) and would not replay a failure."""
    return random.Random(repr(key))


def _predicates(
    rng: random.Random, count: int, max_arity: int, min_arity: int = 1
) -> List[Predicate]:
    return [
        Predicate(f"p{i}", rng.randint(min_arity, max_arity))
        for i in range(count)
    ]


def _fresh_variables(count: int, prefix: str = "X") -> List[Variable]:
    return [Variable(f"{prefix}{i + 1}") for i in range(count)]


_RULE_CONSTANTS = (Constant("k1"), Constant("k2"))


def random_simple_linear(
    num_rules: int,
    num_predicates: int = 4,
    max_arity: int = 3,
    exist_prob: float = 0.5,
    seed: int = 0,
    constant_prob: float = 0.0,
) -> List[TGD]:
    """Random SL set: single-atom bodies, no repeated body variables.

    ``constant_prob`` sprinkles rule constants into body and head
    positions — the regime where the Theorem 1 characterizations stop
    applying and the critical deciders must take over.
    """
    rng = _rng("sl", num_rules, num_predicates, max_arity, exist_prob, seed,
               constant_prob)
    predicates = _predicates(rng, num_predicates, max_arity)
    rules: List[TGD] = []
    for index in range(num_rules):
        body_pred = rng.choice(predicates)
        body_terms: List[Term] = []
        for position in range(body_pred.arity):
            if rng.random() < constant_prob:
                body_terms.append(rng.choice(_RULE_CONSTANTS))
            else:
                body_terms.append(Variable(f"X{position + 1}"))
        body = Atom(body_pred, body_terms)
        body_vars = sorted(body.variables())
        head_pred = rng.choice(predicates)
        head_terms: List[Term] = []
        existential_counter = 0
        for _ in range(head_pred.arity):
            if rng.random() < constant_prob:
                head_terms.append(rng.choice(_RULE_CONSTANTS))
            elif body_vars and rng.random() >= exist_prob:
                head_terms.append(rng.choice(body_vars))
            else:
                existential_counter += 1
                head_terms.append(Variable(f"Z{existential_counter}"))
        rules.append(
            TGD([body], [Atom(head_pred, head_terms)], label=f"r{index + 1}")
        )
    return rules


def random_linear(
    num_rules: int,
    num_predicates: int = 4,
    max_arity: int = 3,
    exist_prob: float = 0.5,
    repeat_prob: float = 0.4,
    seed: int = 0,
) -> List[TGD]:
    """Random linear set; body variables may repeat (the Theorem 2
    regime where plain WA/RA become incomplete)."""
    rng = _rng("l", num_rules, num_predicates, max_arity, exist_prob,
               repeat_prob, seed)
    predicates = _predicates(rng, num_predicates, max_arity)
    rules: List[TGD] = []
    for index in range(num_rules):
        body_pred = rng.choice(predicates)
        body_terms: List[Variable] = []
        for position in range(body_pred.arity):
            if body_terms and rng.random() < repeat_prob:
                body_terms.append(rng.choice(body_terms))
            else:
                body_terms.append(Variable(f"X{position + 1}"))
        body = Atom(body_pred, body_terms)
        body_vars = sorted(body.variables())
        head_pred = rng.choice(predicates)
        head_terms: List[Variable] = []
        existential_counter = 0
        for _ in range(head_pred.arity):
            if body_vars and rng.random() >= exist_prob:
                head_terms.append(rng.choice(body_vars))
            else:
                existential_counter += 1
                head_terms.append(Variable(f"Z{existential_counter}"))
        rules.append(
            TGD([body], [Atom(head_pred, head_terms)], label=f"r{index + 1}")
        )
    return rules


def random_guarded(
    num_rules: int,
    num_predicates: int = 4,
    max_arity: int = 3,
    side_atoms: int = 1,
    exist_prob: float = 0.5,
    seed: int = 0,
) -> List[TGD]:
    """Random guarded set: a guard atom over all body variables plus up
    to ``side_atoms`` additional body atoms over subsets of them."""
    rng = _rng("g", num_rules, num_predicates, max_arity, side_atoms,
               exist_prob, seed)
    predicates = _predicates(rng, num_predicates, max_arity)
    rules: List[TGD] = []
    for index in range(num_rules):
        guard_pred = rng.choice(
            [p for p in predicates if p.arity == max(q.arity for q in predicates)]
        )
        guard_vars = _fresh_variables(guard_pred.arity)
        body: List[Atom] = [Atom(guard_pred, guard_vars)]
        distinct_vars = sorted(set(guard_vars))
        for _ in range(rng.randint(0, side_atoms)):
            side_pred = rng.choice(
                [p for p in predicates if p.arity <= len(distinct_vars)]
            )
            body.append(
                Atom(side_pred, rng.sample(distinct_vars, side_pred.arity))
            )
        head_pred = rng.choice(predicates)
        head_terms: List[Variable] = []
        existential_counter = 0
        for _ in range(head_pred.arity):
            if rng.random() >= exist_prob:
                head_terms.append(rng.choice(distinct_vars))
            else:
                existential_counter += 1
                head_terms.append(Variable(f"Z{existential_counter}"))
        rules.append(
            TGD(body, [Atom(head_pred, head_terms)], label=f"r{index + 1}")
        )
    return rules


def random_database(
    rules: Sequence[TGD],
    num_constants: int = 3,
    facts_per_predicate: int = 2,
    seed: int = 0,
):
    """A random database over the schema of ``rules``."""
    from ..model import Constant, Database, Schema

    rng = _rng("db", num_constants, facts_per_predicate, seed)
    constants = [Constant(f"c{i + 1}") for i in range(num_constants)]
    database = Database()
    for pred in Schema.from_rules(rules):
        for _ in range(facts_per_predicate):
            database.add(
                Atom(pred, [rng.choice(constants) for _ in range(pred.arity)])
            )
    return database
