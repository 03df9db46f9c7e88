"""Tests for guarded atom entailment."""

import pytest

from repro.errors import UnsupportedClassError
from repro.model import Variable
from repro.parser import parse_atom, parse_database, parse_program
from repro.entailment import entails_atom, saturated_facts


class TestEntailsAtom:
    def test_database_facts_entailed(self):
        rules = parse_program("p(X) -> q(X)")
        db = parse_database("p(a)")
        assert entails_atom(rules, db, parse_atom("p(a)"))

    def test_full_rule_consequences(self):
        rules = parse_program("p(X) -> q(X)\nq(X) -> r(X)")
        db = parse_database("p(a)")
        assert entails_atom(rules, db, parse_atom("r(a)"))
        assert not entails_atom(rules, db, parse_atom("r(b)"))

    def test_join_rule_consequences(self):
        rules = parse_program("e(X, Y), e(Y, X) -> sym(X)")
        db = parse_database("e(a, b)\ne(b, a)")
        assert entails_atom(rules, db, parse_atom("sym(a)"))
        assert entails_atom(rules, db, parse_atom("sym(b)"))

    def test_through_existentials_and_back(self):
        # The consequence travels through a null and returns to the
        # constants: requires genuine up-propagation.
        rules = parse_program(
            """
            a(X) -> exists Y . e(X, Y)
            e(X, Y) -> marked(X)
            """
        )
        db = parse_database("a(c)")
        assert entails_atom(rules, db, parse_atom("marked(c)"))

    def test_entailment_under_infinite_chase(self):
        # The chase diverges, yet entailment over the constants is
        # decided (the whole point of using saturation, not the chase).
        rules = parse_program(
            """
            person(X) -> exists Y . father(X, Y), person(Y)
            father(X, Y) -> childOf(Y, X)
            person(X) -> human(X)
            """
        )
        db = parse_database("person(bob)")
        assert entails_atom(rules, db, parse_atom("human(bob)"))
        assert not entails_atom(rules, db, parse_atom("childOf(bob, bob)"))

    def test_unknown_constant_not_entailed(self):
        rules = parse_program("p(X) -> q(X)")
        db = parse_database("p(a)")
        assert not entails_atom(rules, db, parse_atom("q(stranger)"))

    def test_unknown_predicate_not_entailed(self):
        rules = parse_program("p(X) -> q(X)")
        db = parse_database("p(a)")
        assert not entails_atom(rules, db, parse_atom("mystery(a)"))

    def test_zero_ary_goal(self):
        rules = parse_program("p(X), q(X) -> boom()")
        db = parse_database("p(a)\nq(a)")
        assert entails_atom(rules, db, parse_atom("boom()"))

    def test_non_ground_query_rejected(self):
        from repro.model import Atom, Predicate

        rules = parse_program("p(X) -> q(X)")
        db = parse_database("p(a)")
        query = Atom(Predicate("q", 1), [Variable("X")])
        with pytest.raises(ValueError):
            entails_atom(rules, db, query)

    def test_unguarded_rules_rejected(self):
        rules = parse_program("p(X, Y), q(Y, Z) -> r(X, Z)")
        db = parse_database("p(a, b)")
        with pytest.raises(UnsupportedClassError):
            entails_atom(rules, db, parse_atom("r(a, a)"))


class TestSelectiveGuardConstant:
    """A wide guard carrying a selective rule constant, joined with a
    medium unconstrained relation: ``wide(X, Y, k_l), mid(X, Y) ->
    out_l(X, Y)``.  The cost order starts from the three rows tagged
    ``k_l`` (the syntactic order would start from ``mid``)."""

    def setup_method(self):
        facts = [f"wide(x{i}, y{i}, f{i})" for i in range(15)]
        facts += [f"mid(x{i}, y{i})" for i in range(6)]
        # Rows i-1, i and i+1 carry k_i.
        facts += [f"wide(x{row}, y{row}, k{i})"
                  for i in (1, 2) for row in range(i - 1, i + 2)]
        self.rules = parse_program(
            "wide(X, Y, k1), mid(X, Y) -> out1(X, Y)\n"
            "wide(X, Y, k2), mid(X, Y) -> out2(X, Y)"
        )
        self.db = parse_database("\n".join(facts))

    def test_verdicts(self):
        expected = [
            ("out1(x0, y0)", True),
            ("out1(x2, y2)", True),
            ("out2(x1, y1)", True),
            ("out1(x5, y5)", False),  # in mid, but not tagged k1
            ("out2(x0, y0)", False),
        ]
        for text, want in expected:
            got = entails_atom(self.rules, self.db, parse_atom(text))
            assert got is want, text


class TestSaturatedFacts:
    def test_matches_terminating_chase_restriction(self):
        from repro.chase import ChaseVariant, run_chase

        rules = parse_program("p(X) -> q(X)\nq(X) -> exists Z . r(X, Z)")
        db = parse_database("p(a)\np(b)")
        saturated = saturated_facts(rules, db)
        chase = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        assert chase.terminated
        constant_facts = {
            f for f in chase.instance if not f.nulls()
        }
        assert set(saturated.facts()) == constant_facts

    def test_no_null_facts_reported(self):
        rules = parse_program("p(X) -> exists Z . q(X, Z)")
        db = parse_database("p(a)")
        saturated = saturated_facts(rules, db)
        assert all(not f.nulls() for f in saturated)

    def test_infinite_chase_still_finite_report(self):
        rules = parse_program(
            "person(X) -> exists Y . father(X, Y), person(Y)"
        )
        db = parse_database("person(bob)")
        saturated = saturated_facts(rules, db)
        assert set(str(f) for f in saturated) == {"person(bob)"}
