"""The cost-based query subsystem ≡ the object-level oracle.

``repro.query`` plans conjunctions from columnar statistics and
evaluates them entirely in id space; the retained object-level path
(:func:`repro.model.naive_homomorphisms` + explicit ``Term``-tuple
projection) is the oracle.  Cost-ordered answers must be
*set*-identical to the oracle's — the join order may permute
enumeration order, never membership — on chase-grown instances with
labelled nulls and (via the Skolem chase) structured Skolem terms.

Also covered: the plan cache's fact-count-bucket invalidation, the
certain-answer null filtering, ``is_model`` against an object-level
reference, and the absence of any join-order selection: every job
has one fixed order, so the keywords that once chose another are
rejected.
"""

import random

import pytest

from repro.chase import ChaseVariant, critical_instance, run_chase
from repro.cq import ConjunctiveQuery, is_model
from repro.model import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    TGD,
    Variable,
    has_homomorphism,
    naive_homomorphisms,
)
from repro.query import CompiledQuery, estimate_extension, order_atoms_cost, order_for
from repro.termination import skolem_chase
from repro.workloads import random_database, random_guarded
from tests.conftest import atom

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def oracle_answer_set(answer_variables, atoms, instance):
    """The object-level reference: naive backtracking matches projected
    to Term tuples."""
    return {
        tuple(assignment[v] for v in answer_variables)
        for assignment in naive_homomorphisms(atoms, instance)
    }


def _random_program(rng):
    """A small random program mixing full and existential rules (the
    test_join_equivalence idiom)."""
    preds = [Predicate(f"p{i}", rng.randint(1, 3)) for i in range(3)]
    variables = [Variable(n) for n in ("X", "Y", "Z", "W")]
    consts = [Constant(c) for c in ("a", "b")]
    rules = []
    for _ in range(rng.randint(2, 4)):
        body = []
        for _ in range(rng.randint(1, 2)):
            pred = rng.choice(preds)
            body.append(Atom(pred, [
                rng.choice(consts) if rng.random() < 0.15
                else rng.choice(variables[:3])
                for _ in range(pred.arity)
            ]))
        body_vars = {t for a in body for t in a.variables()}
        head_pred = rng.choice(preds)
        head_pool = sorted(body_vars) + [variables[3]]
        head = [Atom(head_pred, [
            rng.choice(head_pool) for _ in range(head_pred.arity)
        ])]
        rules.append(TGD(body, head))
    return rules, preds, consts


def _random_query(rng, preds):
    """A random CQ over ``preds`` with 1-3 body atoms and a random
    projection of its variables."""
    variables = [Variable(n) for n in ("X", "Y", "Z")]
    body = []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(preds)
        body.append(Atom(pred, [
            rng.choice(variables) for _ in range(pred.arity)
        ]))
    body_vars = sorted({t for a in body for t in a.variables()})
    answer = [v for v in body_vars if rng.random() < 0.6]
    return ConjunctiveQuery(answer, body)


def _grown(rng, rules, preds, consts):
    db = Database()
    for _ in range(rng.randint(3, 7)):
        pred = rng.choice(preds)
        db.add(Atom(pred, [rng.choice(consts)
                           for _ in range(pred.arity)]))
    return run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS,
                     max_steps=80).instance


class TestAnswerEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_planner_answers_match_oracle_on_chase_grown(self, seed):
        rng = random.Random(seed)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        assert grown.nulls() or True  # nulls appear for existential rules
        for _ in range(4):
            query = _random_query(rng, preds)
            oracle = oracle_answer_set(
                query.answer_variables, query.atoms, grown
            )
            assert set(query.answers(grown)) == oracle

    @pytest.mark.parametrize("seed", range(6))
    def test_planner_answers_match_oracle_with_skolem_terms(self, seed):
        rng = random.Random(seed + 500)
        rules, preds, consts = _random_program(rng)
        grown, _, _ = skolem_chase(critical_instance(rules), rules,
                                   max_steps=200)
        for _ in range(4):
            query = _random_query(rng, preds)
            oracle = oracle_answer_set(
                query.answer_variables, query.atoms, grown
            )
            assert set(query.answers(grown)) == oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_certain_answers_are_exactly_null_free_oracle(self, seed):
        rng = random.Random(seed + 1000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(4):
            query = _random_query(rng, preds)
            oracle = {
                answer
                for answer in oracle_answer_set(
                    query.answer_variables, query.atoms, grown
                )
                if not any(isinstance(t, Null) for t in answer)
            }
            certain = query.certain_answers(grown)
            assert set(certain) == oracle
            # Sorted-for-determinism contract.
            assert certain == sorted(
                certain, key=lambda tup: tuple(str(t) for t in tup)
            )

    def test_answers_deduplicate_in_id_space(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "a", "c"),
                         atom("e", "b", "c")])
        query = ConjunctiveQuery([X], [atom("e", "X", "Y")])
        assert list(query.answers(inst)) == [
            (Constant("a"),), (Constant("b"),)
        ]

    def test_boolean_holds_in(self):
        inst = Instance([atom("p", "a")])
        query = ConjunctiveQuery([], [atom("p", "X")])
        assert query.holds_in(inst)
        missing = ConjunctiveQuery([], [atom("q", "X")])
        assert not missing.holds_in(inst)


class TestPlanCache:
    def test_steady_state_hits_and_bucket_replan(self):
        inst = Instance([atom("e", "c0", "c1")])
        compiled = CompiledQuery([X], [Atom(Predicate("e", 2), [X, Y])])
        list(compiled.answers(inst))
        assert compiled.stats == {
            "plans": 1, "plan_hits": 0, "early_outs": 0
        }
        # Same bucket: pure cache hit.
        list(compiled.answers(inst))
        assert compiled.stats == {
            "plans": 1, "plan_hits": 1, "early_outs": 0
        }
        # Grow past the next power-of-two fact-count bucket: the cached
        # plan expires and the query replans from fresh statistics.
        before = len(inst)
        for i in range(1, 2 * before + 2):
            inst.add(atom("e", f"c{i}", f"c{i + 1}"))
        assert len(inst).bit_length() > before.bit_length()
        list(compiled.answers(inst))
        assert compiled.stats["plans"] == 2

    def test_cache_is_per_instance(self):
        compiled = CompiledQuery([X], [Atom(Predicate("e", 2), [X, Y])])
        a = Instance([atom("e", "a", "b")])
        b = Instance([atom("e", "c", "d")])
        assert list(compiled.answers(a)) == [(Constant("a"),)]
        assert list(compiled.answers(b)) == [(Constant("c"),)]
        assert compiled.stats["plans"] == 2


class TestCostOrdering:
    def test_orders_are_permutations(self):
        inst = Instance([atom("e", "a", "b"), atom("p", "a")])
        atoms = (atom("e", "X", "Y"), atom("p", "X"), atom("q", "Y", "Z"))
        ordered = order_atoms_cost(atoms, inst)
        assert sorted(map(str, ordered)) == sorted(map(str, atoms))

    def test_selective_constant_first(self):
        inst = Instance()
        for i in range(50):
            inst.add(atom("big", f"x{i}", "hub"))
        inst.add(atom("small", "x1", "x2"))
        # big holds 50 rows, small a single one: the one-row relation
        # seeds the join.
        ordered = order_atoms_cost(
            (atom("big", "X", "Y"), atom("small", "X", "Z")), inst
        )
        assert ordered[0].predicate.name == "small"

    def test_posting_list_beats_relation_size(self):
        inst = Instance()
        for i in range(40):
            inst.add(atom("r", f"a{i}", "h0" if i else "h1"))
        for i in range(5):
            inst.add(atom("s", f"b{i}", f"c{i}"))
        # r is bigger, but r(X, 'h1') has a single-row posting list.
        ordered = order_atoms_cost(
            (atom("s", "X", "Y"), atom("r", "Z", "h1")), inst
        )
        assert ordered[0].predicate.name == "r"
        est = estimate_extension(inst, atom("r", "Z", "h1"), frozenset())
        assert est == 1.0

    def test_bound_variable_uses_column_cardinality(self):
        inst = Instance()
        for i in range(30):
            inst.add(atom("t", f"k{i % 3}", f"v{i}"))
        # 3 distinct keys over 30 rows -> ~10 expected matches for a
        # bound first column, far below the 30-row relation scan.
        est = estimate_extension(
            inst, atom("t", "X", "Y"), frozenset({Variable("X")})
        )
        assert est == pytest.approx(10.0)

    def test_joint_selectivity_beats_single_best_index(self):
        # Two relations joined on both columns of an already-bound
        # pair (X, Y).  ``narrow`` (50 rows, key first column, a
        # single value in the second) has a perfect single index: its
        # old min-of-candidate-lists estimate is 50/50 = 1.  ``spread``
        # (100 rows, 25 x 20 distinct) has no comparably good single
        # column — old estimate min(100/25, 100/20) = 4 — but its
        # *joint* selectivity is far better: 100 / (25 * 20) = 0.2
        # expected matches per bound pair.  The old model ordered
        # narrow first (1 < 4); the product model must not.
        inst = Instance()
        for i in range(100):
            inst.add(atom("narrow", f"n{i % 50}", "only"))
            inst.add(atom("spread", f"n{i % 25}", f"m{i % 20}"))
        for i in range(5):
            inst.add(atom("seed", f"n{i}", f"m{i}"))
        bound = frozenset({X, Y})
        narrow = atom("narrow", "X", "Y")
        spread = atom("spread", "X", "Y")
        assert estimate_extension(inst, narrow, bound) == pytest.approx(1.0)
        assert estimate_extension(inst, spread, bound) == pytest.approx(0.2)
        ordered = order_atoms_cost((narrow, spread), inst, bound)
        assert ordered[0].predicate.name == "spread"
        # Full plan: the 5-row seed binds (X, Y), then the joint model
        # runs spread before narrow — the old single-index model chose
        # [seed, narrow, spread] here.
        full = order_atoms_cost(
            (atom("seed", "X", "Y"), narrow, spread), inst
        )
        assert [a.predicate.name for a in full] == [
            "seed", "spread", "narrow"
        ]

    def test_constant_and_bound_var_multiply(self):
        # r(X, c) under bound X: 20 rows, posting('c') covers half of
        # them, and column 0 has 10 distinct values ->
        # 20 * (1/10) * (10/20) = 1, below both single-position
        # candidates (20/10 = 2 and posting 10).
        inst = Instance()
        for i in range(40):
            inst.add(atom("r", f"k{i % 10}", "c" if i < 20 else "d"))
        est = estimate_extension(
            inst, atom("r", "X", "c"), frozenset({X})
        )
        assert est == pytest.approx(1.0)

    def test_repeated_variable_constrains_later_positions(self):
        # e(X, X): the second occurrence is equality-constrained by
        # the first, so it contributes its column's 1/distinct even
        # with nothing bound: 30 * (1/10) = 3.
        inst = Instance()
        for i in range(30):
            inst.add(atom("e", f"a{i % 30}", f"b{i % 10}"))
        est = estimate_extension(inst, atom("e", "X", "X"), frozenset())
        assert est == pytest.approx(3.0)

    def test_order_for_is_deterministic_and_cached(self):
        inst = Instance([atom("e", "a", "b"), atom("p", "a")])
        atoms = (atom("e", "X", "Y"), atom("p", "X"))
        first = order_for(atoms, inst)
        assert order_for(atoms, inst) == first
        assert order_for(atoms, inst) is first  # cached object


class TestIsModel:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_object_level_reference(self, seed):
        rules = random_guarded(3, side_atoms=2, seed=seed)
        db = random_database(rules, num_constants=3,
                             facts_per_predicate=2, seed=seed)
        grown = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS,
                          max_steps=60).instance

        def reference(instance, rules):
            for rule in rules:
                for assignment in naive_homomorphisms(rule.body, instance):
                    partial = {v: assignment[v] for v in rule.frontier}
                    if not has_homomorphism(rule.head, instance, partial):
                        return False
            return True

        assert is_model(grown, rules) == reference(grown, rules)
        # A strict sub-instance generally violates some rule; whatever
        # the truth, the engines must agree on it.
        sub = Instance(list(grown)[: max(1, len(grown) // 2)])
        assert is_model(sub, rules) == reference(sub, rules)


class TestHandwrittenJoin:
    def test_answers_match_oracle(self):
        inst = Instance([
            atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "a"),
            atom("e", "a", "a"),
            Atom(Predicate("e", 2), [Null(3), Constant("a")]),
        ])
        query = ConjunctiveQuery(
            [X, Z], [atom("e", "X", "Y"), atom("e", "Y", "Z")]
        )
        oracle = oracle_answer_set(query.answer_variables, query.atoms, inst)
        assert set(query.answers(inst)) == oracle
        certain = {
            a for a in oracle
            if not any(isinstance(t, Null) for t in a)
        }
        assert set(query.certain_answers(inst)) == certain


def _removed_order_keywords():
    """``(name, call, keyword)`` for every keyword that once chose a
    join order (or, for ``run_chase``, a null numbering); each
    ``call(**kwargs)`` forwards to the public surface."""
    from repro.chase import ChaseSession
    from repro.entailment import entails_atom, looping_operator
    from repro.entailment.atoms import saturated_facts
    from repro.serve import ChaseService
    from repro.termination import (
        TypeAnalysis,
        decide_guarded,
        decide_termination,
        termination_report,
    )
    from repro.termination.abstraction import pattern_homomorphisms

    rules = [TGD([atom("p", "X")], [atom("q", "X")])]
    db = Database([atom("p", "a")])
    inst = Instance([atom("p", "a")])
    body = (atom("p", "X"),)
    query = ConjunctiveQuery([X], list(body))
    so = ChaseVariant.SEMI_OBLIVIOUS
    return [
        ("run_chase(planner=)",
         lambda **kw: run_chase(db, rules, **kw), "planner"),
        ("run_chase(null_factory=)",
         lambda **kw: run_chase(db, rules, **kw), "null_factory"),
        ("ChaseSession.start(planner=)",
         lambda **kw: ChaseSession.start(db, rules, **kw), "planner"),
        ("decide_termination(order_policy=)",
         lambda **kw: decide_termination(rules, **kw), "order_policy"),
        ("decide_guarded(order_policy=)",
         lambda **kw: decide_guarded(rules, so, **kw), "order_policy"),
        ("TypeAnalysis(order_policy=)",
         lambda **kw: TypeAnalysis(rules, **kw), "order_policy"),
        ("termination_report(order_policy=)",
         lambda **kw: termination_report(rules, **kw), "order_policy"),
        ("entails_atom(order_policy=)",
         lambda **kw: entails_atom(rules, db, atom("q", "a"), **kw),
         "order_policy"),
        ("saturated_facts(order_policy=)",
         lambda **kw: saturated_facts(rules, db, **kw), "order_policy"),
        ("looping_operator(order_policy=)",
         lambda **kw: looping_operator(
             rules, db, Predicate("goal", 0), **kw),
         "order_policy"),
        ("order_for(policy=)",
         lambda **kw: order_for(body, inst, **kw), "policy"),
        ("CompiledQuery(policy=)",
         lambda **kw: CompiledQuery([X], body, **kw), "policy"),
        ("ConjunctiveQuery.compiled(policy=)",
         lambda **kw: query.compiled(**kw), "policy"),
        ("ConjunctiveQuery.answers(policy=)",
         lambda **kw: query.answers(inst, **kw), "policy"),
        ("ConjunctiveQuery.certain_answers(policy=)",
         lambda **kw: query.certain_answers(inst, **kw), "policy"),
        ("ConjunctiveQuery.holds_in(policy=)",
         lambda **kw: query.holds_in(inst, **kw), "policy"),
        ("pattern_homomorphisms(policy=)",
         lambda **kw: list(pattern_homomorphisms(body, frozenset(), {},
                                                 **kw)),
         "policy"),
        ("is_model(policy=)",
         lambda **kw: is_model(inst, rules, **kw), "policy"),
        ("ChaseService.query(policy=)",
         lambda **kw: ChaseService(inst).query("q(X) :- p(X)", **kw),
         "policy"),
    ]


class TestOneJoinOrder:
    """Every job has one join order, so no parameter selects another:
    the removed keywords are plain ``TypeError``s, not aliases."""

    @pytest.mark.parametrize("call,keyword", [
        pytest.param(call, keyword, id=name)
        for name, call, keyword in _removed_order_keywords()
    ])
    def test_removed_keyword_raises_type_error(self, call, keyword):
        value = None if keyword == "null_factory" else "heuristic"
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})

    def test_no_selection_state_left(self):
        import repro.query
        from repro.chase import ChaseSession

        assert not hasattr(repro.query, "ORDER_POLICIES")
        assert "order_policy" not in Instance.__slots__
        assert "planner" not in ChaseSession.__slots__
        with pytest.raises(AttributeError):
            Instance().order_policy = "cost"
