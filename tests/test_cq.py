"""Tests for conjunctive queries and universality checks."""

import pytest

from repro.chase import ChaseVariant, run_chase
from repro.cq import ConjunctiveQuery, is_model, is_model_of, is_universal_for
from repro.model import Constant, Instance, Null, Variable
from repro.parser import parse_atom, parse_database, parse_program
from tests.conftest import atom


class TestConstruction:
    def test_needs_atoms(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([], [])

    def test_answer_variables_must_occur(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([Variable("W")], [parse_atom("p(X)")])

    def test_boolean_query(self):
        query = ConjunctiveQuery([], [parse_atom("p(X)")])
        assert query.is_boolean()

    def test_equality(self):
        a = ConjunctiveQuery([Variable("X")], [parse_atom("p(X)")])
        b = ConjunctiveQuery([Variable("X")], [parse_atom("p(X)")])
        assert a == b and hash(a) == hash(b)


class TestAnswers:
    def test_naive_answers(self):
        inst = Instance([atom("p", "a"), atom("p", "b")])
        query = ConjunctiveQuery([Variable("X")], [parse_atom("p(X)")])
        assert {t[0].name for t in query.answers(inst)} == {"a", "b"}

    def test_answers_deduplicated(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "a", "c")])
        query = ConjunctiveQuery([Variable("X")],
                                 [parse_atom("e(X, Y)")])
        assert len(list(query.answers(inst))) == 1

    def test_join_query(self):
        inst = Instance(
            [atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "a")]
        )
        x, z = Variable("X"), Variable("Z")
        query = ConjunctiveQuery(
            [x, z], [parse_atom("e(X, Y)"), parse_atom("e(Y, Z)")]
        )
        answers = set(query.answers(inst))
        assert (Constant("a"), Constant("c")) in answers
        assert len(answers) == 3

    def test_certain_answers_filter_nulls(self):
        from repro.model import Atom, Predicate

        inst = Instance(
            [atom("p", "a"), Atom(Predicate("p", 1), [Null(1)])]
        )
        query = ConjunctiveQuery([Variable("X")], [parse_atom("p(X)")])
        certain = query.certain_answers(inst)
        assert certain == [(Constant("a"),)]

    def test_certain_answers_sorted(self):
        inst = Instance([atom("p", "b"), atom("p", "a")])
        query = ConjunctiveQuery([Variable("X")], [parse_atom("p(X)")])
        names = [t[0].name for t in query.certain_answers(inst)]
        assert names == ["a", "b"]

    def test_holds_in(self):
        inst = Instance([atom("p", "a")])
        assert ConjunctiveQuery([], [parse_atom("p(X)")]).holds_in(inst)
        assert not ConjunctiveQuery([], [parse_atom("q(X)")]).holds_in(inst)


class TestCertainAnswersViaChase:
    def test_certain_answers_on_universal_model(self):
        rules = parse_program(
            "emp(X) -> exists D . works(X, D)\nworks(X, D) -> dept(D)"
        )
        db = parse_database("emp(ada)")
        result = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        assert result.terminated
        # dept(D): only a null witness exists -> no certain answers.
        query = ConjunctiveQuery([Variable("D")], [parse_atom("dept(D)")])
        assert query.certain_answers(result.instance) == []
        # but the boolean query is certain.
        boolean = ConjunctiveQuery([], [parse_atom("dept(D)")])
        assert boolean.holds_in(result.instance)


class TestModelChecks:
    RULES = parse_program("p(X) -> exists Z . q(X, Z)")

    def test_is_model_positive(self):
        inst = Instance([atom("p", "a"), atom("q", "a", "w")])
        assert is_model(inst, self.RULES)

    def test_is_model_negative(self):
        inst = Instance([atom("p", "a")])
        assert not is_model(inst, self.RULES)

    def test_is_model_of_requires_database(self):
        db = parse_database("p(a)")
        inst = Instance([atom("q", "a", "w")])
        assert not is_model_of(inst, db, self.RULES)

    def test_chase_result_is_model_of_inputs(self):
        db = parse_database("p(a)\np(b)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        assert is_model_of(result.instance, db, self.RULES)

    def test_universality_direction(self):
        db = parse_database("p(a)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        model = Instance([atom("p", "a"), atom("q", "a", "b")])
        assert is_universal_for(result.instance, model)
        # The converse fails: the model has a constant the chase lacks.
        assert not is_universal_for(model, result.instance)
