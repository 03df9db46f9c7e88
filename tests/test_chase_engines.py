"""Integration tests for the chase engines (§2 semantics)."""

import pytest

from repro.chase import ChaseVariant, run_chase
from repro.chase.triggers import Trigger, apply_trigger
from repro.cq import is_model_of, is_universal_for
from repro.model import Instance, NullFactory, match_atom, naive_homomorphisms
from repro.parser import instance_to_text, parse_database, parse_program
from repro.workloads import guarded_tower_family
from tests.conftest import atom


EX1 = parse_program("person(X) -> exists Y . hasFather(X, Y), person(Y)")
EX2 = parse_program("p(X, Y) -> exists Z . p(Y, Z)")


class TestBasics:
    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            run_chase(Instance(), EX1, variant="bogus")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            run_chase(Instance(), EX1, max_steps=0)

    def test_database_not_mutated(self):
        db = parse_database("person(bob)")
        run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=5)
        assert len(db) == 1

    def test_empty_database_trivially_terminates(self):
        result = run_chase(Instance(), EX1, ChaseVariant.SEMI_OBLIVIOUS)
        assert result.terminated
        assert result.step_count == 0

    def test_empty_rules_terminate(self):
        result = run_chase(
            parse_database("p(a)"), [], ChaseVariant.SEMI_OBLIVIOUS
        )
        assert result.terminated
        assert len(result.instance) == 1


def _checkpoint_cadence_calls(tmp_path):
    """Every function that once took ``checkpoint_every``, by name;
    each ``call(**kwargs)`` forwards to it."""
    from repro.chase import ChaseSession, extend_chase, resume_chase

    db = parse_database("person(bob)")
    store = str(tmp_path / "stopped")
    run_chase(db, EX1, max_steps=3, save=store)
    return {
        "run_chase": lambda **kw: run_chase(
            db, EX1, max_steps=3, save=str(tmp_path / "fresh"), **kw),
        "resume_chase": lambda **kw: resume_chase(store, **kw),
        "ChaseSession.start": lambda **kw: ChaseSession.start(
            db, EX1, max_steps=3, **kw),
        "ChaseSession.resume":
            lambda **kw: ChaseSession.resume(store, **kw),
        "extend_chase": lambda **kw: extend_chase(store, [], **kw),
    }


class TestOneDriver:
    """Fresh, resumed and resident chases run through one driver: the
    per-variant wrappers and the checkpoint cadence are gone."""

    @pytest.mark.parametrize("module", ["repro.chase", "repro"])
    @pytest.mark.parametrize(
        "name",
        ["oblivious_chase", "semi_oblivious_chase", "restricted_chase"],
    )
    def test_per_variant_wrapper_is_gone(self, module, name):
        import importlib

        assert name not in importlib.import_module(module).__all__
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("name", [
        "run_chase", "resume_chase", "ChaseSession.start",
        "ChaseSession.resume", "extend_chase",
    ])
    def test_checkpoint_every_raises_type_error(self, name, tmp_path):
        call = _checkpoint_cadence_calls(tmp_path)[name]
        with pytest.raises(TypeError, match="checkpoint_every"):
            call(checkpoint_every=2)


class TestExample1:
    """The paper's Example 1: an infinite chase, budget-bounded here."""

    def test_budget_exhaustion_reported(self):
        db = parse_database("person(bob)")
        result = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=10)
        assert not result.terminated
        assert result.exhausted
        assert result.step_count == 10

    def test_prefix_shape(self):
        db = parse_database("person(bob)")
        result = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=3)
        persons = result.instance.facts_with_predicate(
            EX1[0].body[0].predicate
        )
        fathers = [
            f for f in result.instance
            if f.predicate.name == "hasFather"
        ]
        # person(bob), person(z1..z3); hasFather chains them.
        assert len(persons) == 4
        assert len(fathers) == 3

    def test_nulls_form_chain(self):
        db = parse_database("person(bob)")
        result = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=4)
        chain = [
            f for f in result.instance if f.predicate.name == "hasFather"
        ]
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.terms[1] == later.terms[0]


class TestExample2:
    def test_all_variants_diverge(self):
        db = parse_database("p(a, b)")
        for variant in ChaseVariant.ALL:
            result = run_chase(db, EX2, variant, max_steps=20)
            assert not result.terminated, variant

    def test_instance_matches_paper_shape(self):
        db = parse_database("p(a, b)")
        result = run_chase(db, EX2, ChaseVariant.SEMI_OBLIVIOUS, max_steps=3)
        facts = sorted(str(f) for f in result.instance)
        assert "p(a, b)" in facts
        assert any("p(b, " in f for f in facts)


class TestTerminatingPrograms:
    RULES = parse_program(
        """
        emp(X) -> exists D . works(X, D)
        works(X, D) -> dept(D)
        """
    )

    def test_fixpoint_reached(self):
        db = parse_database("emp(ada)\nemp(alan)")
        for variant in ChaseVariant.ALL:
            result = run_chase(db, self.RULES, variant)
            assert result.terminated, variant

    def test_result_is_model(self):
        db = parse_database("emp(ada)")
        for variant in ChaseVariant.ALL:
            result = run_chase(db, self.RULES, variant)
            assert is_model_of(result.instance, db, self.RULES), variant
            assert result.satisfies(self.RULES)

    def test_result_is_universal(self):
        db = parse_database("emp(ada)")
        # An independently built model: ada works in dept d0.
        model = Instance(
            [atom("emp", "ada"), atom("works", "ada", "d0"),
             atom("dept", "d0")]
        )
        for variant in ChaseVariant.ALL:
            result = run_chase(db, self.RULES, variant)
            assert is_universal_for(result.instance, model), variant
            assert result.maps_into(model)

    def test_full_rules_terminate_on_any_database(self):
        rules = parse_program("e(X, Y) -> e(Y, X)\ne(X, Y), e(Y, Z) -> e(X, Z)")
        db = parse_database("e(a, b)\ne(b, c)")
        result = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        assert result.terminated
        # transitive-symmetric closure over {a,b,c}
        assert len(result.instance) == 9


class TestVariantRelations:
    def test_semi_oblivious_never_larger_than_oblivious(self):
        programs = [
            ("p(X, Y) -> exists Z . q(X, Z)", "p(a, b)\np(a, c)\np(d, d)"),
            ("p(X) -> exists Z . q(X, Z)\nq(X, Y) -> r(X)", "p(a)\np(b)"),
        ]
        for rules_text, db_text in programs:
            rules = parse_program(rules_text)
            db = parse_database(db_text)
            o = run_chase(db, rules, ChaseVariant.OBLIVIOUS)
            so = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
            assert so.terminated and o.terminated
            assert len(so.instance) <= len(o.instance)
            assert so.step_count <= o.step_count

    def test_restricted_never_larger_than_semi_oblivious(self):
        rules = parse_program("p(X) -> exists Z . q(X, Z)")
        db = parse_database("p(a)\nq(a, b)")
        so = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        restricted = run_chase(db, rules, ChaseVariant.RESTRICTED)
        assert restricted.terminated
        # q(a, b) already satisfies the head: restricted adds nothing.
        assert len(restricted.instance) == 2
        assert len(so.instance) == 3

    def test_oblivious_fires_per_homomorphism(self):
        rules = parse_program("p(X, Y) -> exists Z . q(X, Z)")
        db = parse_database("p(a, b)\np(a, c)")
        o = run_chase(db, rules, ChaseVariant.OBLIVIOUS)
        so = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        q_pred = rules[0].head[0].predicate
        assert len(o.instance.facts_with_predicate(q_pred)) == 2
        assert len(so.instance.facts_with_predicate(q_pred)) == 1

    def test_restricted_terminates_where_so_diverges(self):
        # p(X, Y) -> exists Z . p(X, Z): restricted sees the head
        # satisfied by the triggering atom itself.
        rules = parse_program("p(X, Y) -> exists Z . p(X, Z)")
        db = parse_database("p(a, b)")
        restricted = run_chase(db, rules, ChaseVariant.RESTRICTED)
        assert restricted.terminated
        assert len(restricted.instance) == 1


class TestRestrictedHeadCheck:
    """A restricted trigger's head is checked at its own turn in the
    round, against every fact fired before it — including facts fired
    earlier in the same round."""

    def test_head_satisfied_earlier_in_the_round_is_skipped(self):
        # Round 1 discovers both rules' triggers on p(a) and p(b).  The
        # full rule comes first, so by the existential trigger's turn
        # q(a, a) already satisfies exists Y . q(a, Y).
        rules = parse_program(
            "p(X) -> q(X, X)\np(X) -> exists Y . q(X, Y)"
        )
        db = parse_database("p(a)\np(b)")
        restricted = run_chase(db, rules, ChaseVariant.RESTRICTED)
        assert restricted.terminated
        assert restricted.step_count == 2
        assert restricted.instance.facts() == (
            atom("p", "a"), atom("p", "b"),
            atom("q", "a", "a"), atom("q", "b", "b"),
        )
        assert run_chase(
            db, rules, ChaseVariant.SEMI_OBLIVIOUS
        ).step_count == 4

    def test_head_unsatisfied_at_its_turn_fires(self):
        # Reversed rule order: the existential triggers come first and
        # nothing satisfies their heads yet; the full rule's q(a, a) is
        # not implied by q(a, z1), so every trigger fires.
        rules = parse_program(
            "p(X) -> exists Y . q(X, Y)\np(X) -> q(X, X)"
        )
        db = parse_database("p(a)\np(b)")
        restricted = run_chase(db, rules, ChaseVariant.RESTRICTED)
        assert restricted.terminated
        assert restricted.step_count == 4
        assert restricted.instance.facts() == \
            run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS).instance.facts()


class TestFairnessAndDeterminism:
    def test_deterministic_across_runs(self):
        db = parse_database("person(bob)")
        first = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=7)
        second = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=7)
        assert first.instance == second.instance

    def test_every_applicable_trigger_eventually_fires(self):
        rules = parse_program(
            """
            a(X) -> b(X)
            a(X) -> c(X)
            b(X), c(X) -> d(X)
            """
        )
        db = parse_database("a(k)")
        result = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS)
        assert result.terminated
        assert atom("d", "k") in result.instance

    def test_multi_head_all_atoms_added(self):
        rules = parse_program("s(X) -> exists Y . t(X, Y), u(Y), v(X)")
        result = run_chase(
            parse_database("s(a)"), rules, ChaseVariant.SEMI_OBLIVIOUS
        )
        names = {f.predicate.name for f in result.instance}
        assert names == {"s", "t", "u", "v"}

    def test_null_indices_increase_with_creation_order(self):
        db = parse_database("person(bob)")
        result = run_chase(db, EX1, ChaseVariant.SEMI_OBLIVIOUS, max_steps=5)
        nulls = sorted(result.instance.nulls())
        assert [n.index for n in nulls] == list(
            range(1, len(nulls) + 1)
        )


# -- the seed engine as a reference loop -----------------------------------


def _seed_triggers(rules, instance, new_facts):
    """Semi-naive discovery over the pre-index matcher: each new fact
    pivots each body atom of its predicate, and the rest of the body
    joins through ``naive_homomorphisms``."""
    by_predicate = {}
    for fact in new_facts:
        by_predicate.setdefault(fact.predicate, []).append(fact)
    for rule_index, rule in enumerate(rules):
        for pivot, pivot_atom in enumerate(rule.body):
            rest = [a for i, a in enumerate(rule.body) if i != pivot]
            for fact in by_predicate.get(pivot_atom.predicate, ()):
                partial = match_atom(pivot_atom, fact, {})
                if partial is None:
                    continue
                for assignment in naive_homomorphisms(rest, instance, partial):
                    yield Trigger(rule, rule_index, assignment)


def _seed_head_satisfied(trigger, instance):
    """The restricted chase's test through the naive matcher: does the
    frontier image extend to a homomorphism of the head?"""
    rule = trigger.rule
    frontier = {v: trigger.assignment[v] for v in rule.frontier}
    return next(naive_homomorphisms(rule.head, instance, frontier), None) is not None


def seed_chase(database, rules, variant):
    """The seed engine's round loop: discover a round's triggers from
    the previous round's new facts, then fire them in order, skipping
    fired keys (and, for the restricted chase, satisfied heads).
    Returns ``(instance, steps)``; only for terminating inputs."""
    instance = Instance(database)
    factory = NullFactory()
    fired = set()
    steps = 0
    frontier = list(instance)
    while frontier:
        round_triggers = list(_seed_triggers(rules, instance, frontier))
        frontier = []
        for trigger in round_triggers:
            key = trigger.key(variant)
            if key in fired:
                continue
            fired.add(key)
            if variant == ChaseVariant.RESTRICTED and _seed_head_satisfied(
                trigger, instance
            ):
                continue
            frontier.extend(apply_trigger(trigger, instance, factory))
            steps += 1
    return instance, steps


def _facts(lines):
    return parse_database("\n".join(lines))


def deep_chain(size):
    """Path composition over a chain: the canonical two-atom join."""
    n = 12 * size
    return (parse_program("e(X, Y), e(Y, Z) -> p(X, Z)"),
            _facts(f"e(c{i}, c{i + 1})" for i in range(n)))


def wide_relation(size):
    """A skewed star join through few hubs, then an existential."""
    n, hubs = 18 * size, 1 + size
    rules = parse_program(
        "r(X, Y), s(Y, Z) -> t(X, Z)\nt(X, Z) -> exists W . u(Z, W)"
    )
    return rules, _facts(
        [f"r(a{i}, h{i % hubs})" for i in range(n)]
        + [f"s(h{j}, b{j})" for j in range(hubs)]
    )


def guarded_ontology(size):
    """``guarded_tower_family``: guarded multi-atom bodies, one fresh
    null per level."""
    width = 4 * size
    return guarded_tower_family(1 + size), _facts(
        [f"r1(c{i}, d{i})" for i in range(width)]
        + [f"m1(d{i})" for i in range(width)]
    )


def data_exchange(size):
    """Source rows translated to a target schema with invented keys,
    then joined back together (the E10 shape)."""
    n, depts = 16 * size, 2 * size
    rules = parse_program(
        """
        dept(D) -> exists K . dkey(D, K)
        emp(X, D), dkey(D, K) -> works(X, K)
        dkey(D, K) -> exists O . office(K, O)
        works(X, K), office(K, O) -> located(X, O)
        """
    )
    return rules, _facts(
        [f"dept(d{j})" for j in range(depts)]
        + [f"emp(e{i}, d{i % depts})" for i in range(n)]
    )


class TestSeedEngineReference:
    """The engine against the seed's naive round loop: the same facts,
    nulls included, and the same number of fired triggers."""

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize(
        "variant",
        [ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS,
         ChaseVariant.RESTRICTED],
    )
    @pytest.mark.parametrize(
        "shape", [deep_chain, wide_relation, guarded_ontology, data_exchange],
        ids=lambda shape: shape.__name__,
    )
    def test_engine_matches_seed_loop(self, shape, variant, size):
        rules, database = shape(size)
        result = run_chase(database, rules, variant)
        assert result.terminated
        instance, steps = seed_chase(database, rules, variant)
        assert result.step_count == steps > 0
        assert instance_to_text(result.instance) == instance_to_text(instance)
