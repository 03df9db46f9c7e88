#!/usr/bin/env python
"""Quickstart: parse rules, run chases, decide termination.

Reproduces the two running examples of the paper:

* Example 1 — every person has a father who is a person: the chase
  runs forever, and the deciders prove it without running it.
* Example 2 — ``p(X,Y) → ∃Z p(Y,Z)``: the canonical non-terminating
  single rule.

Run:  python examples/quickstart.py
"""

from repro import (
    ChaseVariant,
    decide_termination,
    parse_database,
    parse_program,
    rule_to_text,
    run_chase,
)


def main() -> None:
    print("=" * 72)
    print("Example 1 (paper §1): person(X) -> exists Y . hasFather, person")
    print("=" * 72)
    rules = parse_program(
        "person(X) -> exists Y . hasFather(X, Y), person(Y)"
    )
    for rule in rules:
        print("rule:", rule_to_text(rule))

    database = parse_database("person(bob)")
    result = run_chase(
        database, rules, ChaseVariant.SEMI_OBLIVIOUS, max_steps=6
    )
    print(f"\nchase prefix after {result.step_count} steps "
          f"({'fixpoint' if result.terminated else 'budget exhausted'}):")
    for fact in result.instance:
        print("  ", fact)

    for variant in ("oblivious", "semi_oblivious"):
        verdict = decide_termination(rules, variant=variant)
        print(f"\n{variant}: {verdict.explain()}")

    print()
    print("=" * 72)
    print("Example 2 (paper §2): p(X, Y) -> exists Z . p(Y, Z)")
    print("=" * 72)
    rules2 = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
    for variant in ("oblivious", "semi_oblivious"):
        verdict = decide_termination(rules2, variant=variant)
        print(f"{variant}: {verdict.explain()}")

    print()
    print("=" * 72)
    print("Theorem 2's subtlety: p(X, X) -> exists Z . p(X, Z)")
    print("=" * 72)
    rules3 = parse_program("p(X, X) -> exists Z . p(X, Z)")
    from repro import is_richly_acyclic, is_weakly_acyclic

    print("weakly acyclic:", is_weakly_acyclic(rules3),
          " richly acyclic:", is_richly_acyclic(rules3))
    for variant in ("oblivious", "semi_oblivious"):
        verdict = decide_termination(rules3, variant=variant)
        print(f"{variant}: terminating={verdict.terminating} "
              f"(method: {verdict.method})")
    print("\n=> not weakly acyclic, yet terminating: plain (rich/weak)")
    print("   acyclicity is incomplete for non-simple linear rules, which")
    print("   is why Theorem 2 needs critical acyclicity.")


if __name__ == "__main__":
    main()
