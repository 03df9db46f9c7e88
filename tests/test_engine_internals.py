"""White-box tests for the chase engine's semi-naive trigger discovery."""

import pytest

from repro.chase import ChaseVariant, run_chase
from repro.chase.delta import delta_triggers
from repro.model import Instance
from repro.parser import parse_database, parse_program
from tests.conftest import atom


class TestIncrementalTriggers:
    def test_pivot_on_each_body_atom(self):
        rules = parse_program("p(X), q(X) -> r(X)")
        instance = Instance([atom("p", "a"), atom("q", "a")])
        # Only q(a) is new: the trigger must still be found via the
        # q-pivot with p matched against the full instance.
        triggers = list(
            delta_triggers(rules, instance, [atom("q", "a")])
        )
        assert len(triggers) >= 1

    def test_no_new_facts_no_triggers(self):
        rules = parse_program("p(X) -> r(X)")
        instance = Instance([atom("p", "a")])
        assert list(delta_triggers(rules, instance, [])) == []

    def test_duplicates_possible_but_harmless(self):
        # Both body atoms hit new facts: the same assignment may be
        # discovered twice (once per pivot); the engine dedups by key.
        rules = parse_program("p(X), q(X) -> r(X)")
        instance = Instance([atom("p", "a"), atom("q", "a")])
        triggers = list(
            delta_triggers(
                rules, instance, [atom("p", "a"), atom("q", "a")]
            )
        )
        keys = {t.key(ChaseVariant.OBLIVIOUS) for t in triggers}
        assert len(keys) == 1
        assert len(triggers) == 2

    def test_irrelevant_new_facts_skipped(self):
        rules = parse_program("p(X) -> r(X)")
        instance = Instance([atom("z", "a")])
        assert list(
            delta_triggers(rules, instance, [atom("z", "a")])
        ) == []


class TestEngineEquivalence:
    """The semi-naive engine must compute the same result as a naive
    one; we compare against a tiny reference implementation."""

    def _naive_chase(self, database, rules, variant, max_steps=500):
        from repro.chase.triggers import (
            apply_trigger,
            head_satisfied,
            triggers_for_rule,
        )
        from repro.model import NullFactory

        instance = Instance(database)
        factory = NullFactory()
        fired = set()
        steps = 0
        while True:
            progressed = False
            pending = [
                trigger
                for idx, rule in enumerate(rules)
                for trigger in triggers_for_rule(rule, idx, instance)
                if trigger.key(variant) not in fired
            ]
            for trigger in pending:
                key = trigger.key(variant)
                if key in fired:
                    continue
                if variant == ChaseVariant.RESTRICTED and head_satisfied(
                    trigger, instance
                ):
                    fired.add(key)
                    continue
                fired.add(key)
                apply_trigger(trigger, instance, factory)
                steps += 1
                progressed = True
                if steps >= max_steps:
                    return instance, False
            if not progressed:
                return instance, True

    PROGRAMS = [
        ("p(X) -> exists Z . q(X, Z)\nq(X, Y) -> r(X)", "p(a)\np(b)"),
        ("e(X, Y), e(Y, Z) -> e(X, Z)", "e(a, b)\ne(b, c)\ne(c, d)"),
        ("p(X, Y) -> exists Z . q(X, Z)\nq(X, Y) -> p(X, X)",
         "p(a, b)"),
    ]

    @pytest.mark.parametrize("rules_text,db_text", PROGRAMS)
    @pytest.mark.parametrize(
        "variant",
        [ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS],
    )
    def test_same_result_as_naive(self, rules_text, db_text, variant):
        rules = parse_program(rules_text)
        db = parse_database(db_text)
        fast = run_chase(db, rules, variant, max_steps=500)
        naive_instance, naive_terminated = self._naive_chase(
            db, rules, variant
        )
        assert fast.terminated == naive_terminated
        assert len(fast.instance) == len(naive_instance)
        # Null names may differ; compare null-free facts exactly.
        fast_ground = {f for f in fast.instance if not f.nulls()}
        naive_ground = {f for f in naive_instance if not f.nulls()}
        assert fast_ground == naive_ground
