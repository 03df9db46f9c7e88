"""The shared semi-naive delta engine and the delta-driven deciders.

Covers the PR-2 invariants:

* a round's triggers are materialized before any fact is added — in
  particular the MFA Skolem chase no longer mutates the instance while
  body homomorphisms are being enumerated (the self-feeding-rule
  regression);
* the ``(rule, frontier-image)`` fired-key set persists across rounds,
  so historical triggers are never re-keyed and their Skolem terms
  never rebuilt;
* the delta-driven ``skolem_chase`` agrees with a naive
  materialize-then-apply reference (same fixpoint instance, same MFA
  verdict, same canonical cyclic witness) over random programs;
* ``SkolemTerm`` introspection is recursion-free on deep terms;
* the class-indexed pattern joins compute exactly the assignment sets
  of the retained naive scan, and both pattern engines give the
  guarded decider the same verdicts.
"""

import random
import sys

import pytest

from repro.chase import ChaseVariant, DeltaEngine, critical_instance
from repro.chase import delta as delta_module
from repro.model import (
    Atom,
    Constant,
    Instance,
    Predicate,
    TGD,
    Variable,
    naive_homomorphisms,
)
from repro.parser import parse_program
from repro.termination import decide_guarded
from repro.termination import mfa as mfa_module
from repro.termination import saturation as saturation_module
from repro.termination.abstraction import (
    PatternCloud,
    naive_pattern_homomorphisms,
    pattern_homomorphisms,
)
from repro.termination.mfa import SkolemTerm, _witness_key, skolem_chase
from repro.workloads import (
    guarded_loop_family,
    guarded_tower_family,
    random_guarded,
    random_linear,
    random_simple_linear,
)
from tests.conftest import atom


# -- the reference implementation ------------------------------------------


def reference_skolem_chase(database, rules, max_steps=20_000):
    """Materialize-then-apply Skolem chase by full naive re-enumeration.

    Independent of the delta machinery: every round enumerates all body
    homomorphisms with the retained naive matcher against the
    round-start instance, keeps the not-yet-fired ``(rule,
    frontier-image)`` keys (the fired set persists across rounds), and
    only then applies them.  Cyclic witnesses are canonicalized exactly
    like the production engine: least term of the earliest cyclic
    round.
    """
    rules = list(rules)
    instance = Instance(database)
    fired = set()
    steps = 0
    while True:
        round_triggers = []
        for index, rule in enumerate(rules):
            for assignment in naive_homomorphisms(rule.body, instance):
                key = (
                    index,
                    tuple(
                        (v.name, assignment[v])
                        for v in rule.frontier_sorted
                    ),
                )
                if key in fired:
                    continue
                fired.add(key)
                round_triggers.append((index, rule, assignment))
        if not round_triggers:
            return instance, None, True
        cyclic = []
        for index, rule, assignment in round_triggers:
            args = tuple(assignment[v] for v in rule.frontier_sorted)
            terms = []
            for var in rule.existentials_sorted:
                term = SkolemTerm((index, var.name), args)
                if term.is_cyclic():
                    cyclic.append(term)
                terms.append(term)
            if cyclic:
                continue
            mapping = {v: assignment[v] for v in rule.frontier}
            mapping.update(zip(rule.existentials_sorted, terms))
            for head_atom in rule.head:
                fact = head_atom.substitute(mapping)
                if instance.add(fact):
                    steps += 1
                    if steps >= max_steps:
                        return instance, None, False
        if cyclic:
            return instance, min(cyclic, key=_witness_key), False


def assert_skolem_equivalent(rules, max_steps=20_000):
    """Production and reference Skolem chases agree; returns whether
    they reached a fixpoint."""
    database = critical_instance(rules)
    instance, cyclic, fixpoint = skolem_chase(database, rules, max_steps)
    ref_instance, ref_cyclic, ref_fixpoint = reference_skolem_chase(
        database, rules, max_steps
    )
    assert fixpoint == ref_fixpoint
    assert cyclic == ref_cyclic
    if fixpoint:
        assert instance.frozen() == ref_instance.frozen()
    return fixpoint


# -- DeltaEngine -----------------------------------------------------------


class TestDeltaEngine:
    def test_round_is_materialized_and_deduped(self):
        rules = parse_program("p(X), q(X) -> r(X)")
        instance = Instance([atom("p", "a"), atom("q", "a")])
        engine = DeltaEngine(rules, instance, ChaseVariant.OBLIVIOUS)
        triggers = engine.next_round()
        # Discovered once per pivot but handed out once.
        assert len(triggers) == 1
        assert len(engine.fired) == 1

    def test_fired_keys_persist_across_rounds(self):
        rules = parse_program("p(X), q(X) -> r(X)")
        instance = Instance([atom("p", "a"), atom("q", "a")])
        engine = DeltaEngine(rules, instance, ChaseVariant.OBLIVIOUS)
        (trigger,) = engine.next_round()
        instance.add(atom("q", "a"))  # already present, but notify anyway
        engine.notify([atom("q", "a")])
        # The q-pivot re-discovers the same trigger; its key is already
        # fired, so the next round is empty.
        assert engine.next_round() == []

    def test_empty_frontier_means_fixpoint(self):
        rules = parse_program("p(X) -> r(X)")
        instance = Instance([atom("p", "a")])
        engine = DeltaEngine(rules, instance, ChaseVariant.OBLIVIOUS)
        assert len(engine.next_round()) == 1
        # Nothing notified: the engine has no frontier left.
        assert engine.pending_facts() == 0
        assert engine.next_round() == []

    def test_key_callable_is_gone(self):
        # The variant alone keys triggers; there is no second way.
        rules = parse_program("p(X) -> r(X)")
        instance = Instance([atom("p", "a")])
        with pytest.raises(TypeError, match="key"):
            DeltaEngine(
                rules, instance,
                key=lambda t: t.key(ChaseVariant.OBLIVIOUS),
                variant=ChaseVariant.OBLIVIOUS,
            )


class TestDiscoveryOrder:
    """One canonical order — rule-major, then pivot position, then
    frontier arrival order — fixes the trigger stream and hence null
    numbering.  Arrival order deliberately disagrees with name order
    here (a2 before a1, b1 before b0)."""

    RULES = "p(X), q(Y) -> r(X, Y)\nq(X) -> s(X)"

    @staticmethod
    def instance():
        return Instance([atom("q", "b1"), atom("p", "a2"),
                         atom("p", "a1"), atom("q", "b0")])

    @staticmethod
    def shown(trigger):
        assignment = trigger.assignment
        return (trigger.rule_index,
                tuple(str(assignment[v]) for v in sorted(assignment, key=str)))

    def test_delta_triggers_stream_is_rule_major_then_pivot(self):
        instance = self.instance()
        stream = delta_module.delta_triggers(
            parse_program(self.RULES), instance, list(range(len(instance)))
        )
        assert [self.shown(t) for t in stream] == [
            # rule 0, pivot p(X): p facts in arrival order
            (0, ("a2", "b1")), (0, ("a2", "b0")),
            (0, ("a1", "b1")), (0, ("a1", "b0")),
            # rule 0, pivot q(Y): the same matches, q-major
            (0, ("a2", "b1")), (0, ("a1", "b1")),
            (0, ("a2", "b0")), (0, ("a1", "b0")),
            # rule 1
            (1, ("b1",)), (1, ("b0",)),
        ]

    def test_round_keeps_each_trigger_at_its_first_discovery(self):
        engine = DeltaEngine(
            parse_program(self.RULES), self.instance(),
            ChaseVariant.OBLIVIOUS,
        )
        assert [self.shown(t) for t in engine.next_round()] == [
            (0, ("a2", "b1")), (0, ("a2", "b0")),
            (0, ("a1", "b1")), (0, ("a1", "b0")),
            (1, ("b1",)), (1, ("b0",)),
        ]

    @pytest.mark.parametrize("variant,expected", [
        (ChaseVariant.OBLIVIOUS, [(0, ("a", "c"))]),
        (ChaseVariant.SEMI_OBLIVIOUS, []),
    ])
    def test_atom_frontier_shares_the_fired_keys(self, variant, expected):
        # An Atom frontier that is not in the instance (the public
        # notify() surface) must be keyed like every ordinal frontier:
        # under the semi-oblivious key p(a, c) maps to the fired
        # frontier image X=a, so nothing new is handed out.
        p = Predicate("p", 2)
        rules = [TGD([Atom(p, [Variable("X"), Variable("Y")])],
                     [Atom(Predicate("r", 2),
                           [Variable("X"), Variable("Z")])])]
        instance = Instance([Atom(p, [Constant("a"), Constant("b")])])
        engine = DeltaEngine(rules, instance, variant)
        assert len(engine.next_round()) == 1
        engine.notify([Atom(p, [Constant("a"), Constant("c")])])
        assert [self.shown(t) for t in engine.next_round()] == expected


# -- the mid-enumeration mutation regression -------------------------------


class TestNoMutationDuringEnumeration:
    SELF_FEEDING = "e(X, Y), e(Y, Z) -> exists W . e(Z, W)"

    def test_self_feeding_rule_matches_reference(self):
        # The head feeds the rule's own body: under the pre-PR lazy
        # discovery, facts added by one firing leaked into later join
        # levels of the same enumeration and cascaded within a round.
        rules = parse_program(self.SELF_FEEDING)
        assert_skolem_equivalent(rules, max_steps=4000)

    def test_discovery_never_observes_a_mutation(self, monkeypatch):
        # Wrap the discovery generator so every yield checks that the
        # instance has not grown since discovery started.
        original = delta_module.delta_triggers

        def guarded(rules, instance, new_facts, kernel):
            size_at_start = len(instance)
            for trigger in original(rules, instance, new_facts, kernel):
                assert len(instance) == size_at_start, (
                    "instance mutated while triggers were being "
                    "enumerated"
                )
                yield trigger

        monkeypatch.setattr(delta_module, "delta_triggers", guarded)
        rules = parse_program(self.SELF_FEEDING)
        instance, cyclic, fixpoint = skolem_chase(
            critical_instance(rules), rules, max_steps=4000
        )
        # The rule nests its own Skolem symbol: MFA must be refuted.
        assert cyclic is not None and cyclic.is_cyclic()
        assert not fixpoint

    def test_self_feeding_full_rule_round_structure(self):
        # A full-TGD variant: transitive closure feeding itself.  No
        # Skolem terms at all, but round materialization still decides
        # what a "round" means; the fixpoint must match the reference.
        rules = parse_program("e(X, Y), e(Y, Z) -> e(X, Z)")
        assert_skolem_equivalent(rules)


# -- fired keys persist across rounds (no Skolem-term rebuilds) ------------


class TestSeenAssignmentsHoisted:
    def test_each_skolem_term_is_built_at_most_once(self, monkeypatch):
        constructions = []

        class CountingSkolemTerm(SkolemTerm):
            def __init__(self, symbol, args):
                super().__init__(symbol, args)
                constructions.append((symbol, args))

        monkeypatch.setattr(mfa_module, "SkolemTerm", CountingSkolemTerm)
        # r1's output re-enables r0's body with the *same* frontier
        # image two rounds later: with a per-round seen-set (the old
        # behaviour) r0's Skolem term would be rebuilt; the persistent
        # fired-key set skips the trigger before term construction.
        rules = parse_program(
            """
            a(X), b(X, Y) -> exists Z . h(X, Z)
            h(X, Z) -> b(X, Z)
            """
        )
        instance, cyclic, fixpoint = skolem_chase(
            critical_instance(rules), rules
        )
        assert fixpoint and cyclic is None
        assert len(constructions) == len(set(constructions)), (
            "a (rule, frontier-image) pair was re-keyed and its Skolem "
            "term rebuilt"
        )

    def test_rediscovered_key_fires_no_second_time(self):
        rules = parse_program(
            """
            a(X), b(X, Y) -> exists Z . h(X, Z)
            h(X, Z) -> b(X, Z)
            """
        )
        assert_skolem_equivalent(rules)


# -- SkolemTerm introspection ----------------------------------------------


class TestSkolemTermIterative:
    def test_deep_term_does_not_hit_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 500
        term = SkolemTerm((0, "Z"), (Constant("*"),))
        for _ in range(depth - 1):
            term = SkolemTerm((0, "Z"), (term,))
        assert term.depth() == depth
        assert term.is_cyclic()
        assert term.contains_symbol((0, "Z"))
        assert not term.contains_symbol((1, "W"))

    def test_depth_is_cached_and_consistent(self):
        base = SkolemTerm((0, "Z"), (Constant("*"),))
        wide = SkolemTerm(
            (1, "W"), (base, Constant("*"), SkolemTerm((2, "V"), (base,)))
        )
        assert base.depth() == 1
        assert wide.depth() == 3
        assert wide.contains_symbol((2, "V"))
        assert not wide.is_cyclic()

    def test_witness_key_orders_deep_terms_without_recursion(self):
        deep = SkolemTerm((0, "Z"), (Constant("*"),))
        for _ in range(sys.getrecursionlimit() + 100):
            deep = SkolemTerm((0, "Z"), (deep,))
        shallow = SkolemTerm((0, "Z"), (Constant("*"),))
        assert _witness_key(shallow) < _witness_key(deep)


# -- random-program equivalence --------------------------------------------


class TestSkolemChaseEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_simple_linear_programs(self, seed):
        rules = random_simple_linear(3, seed=seed)
        assert_skolem_equivalent(rules, max_steps=4000)

    @pytest.mark.parametrize("seed", range(8))
    def test_simple_linear_with_constants(self, seed):
        rules = random_simple_linear(
            3, seed=seed, constant_prob=0.3
        )
        assert_skolem_equivalent(rules, max_steps=4000)

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_programs_with_repeats(self, seed):
        rules = random_linear(3, repeat_prob=0.5, seed=seed)
        assert_skolem_equivalent(rules, max_steps=4000)

    @pytest.mark.parametrize("seed", range(6))
    def test_guarded_programs(self, seed):
        rules = random_guarded(3, seed=seed)
        assert_skolem_equivalent(rules, max_steps=4000)

    @pytest.mark.parametrize("levels", [4, 10])
    def test_existential_tower(self, levels):
        # Level i joins s_i with t_i and invents the next level's
        # member: ~levels rounds and ~levels^2/2 nested Skolem terms.
        # Rules are listed top level first.
        rules = parse_program("\n".join(
            f"s{i}(X), t{i}(X) -> exists Z . r{i}(X, Z), s{i + 1}(Z), t{i + 1}(Z)"
            for i in range(levels, 0, -1)
        ))
        assert assert_skolem_equivalent(rules), "the tower is MFA"

    def test_known_cyclic_program_yields_identical_witness(self):
        rules = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
        database = critical_instance(rules)
        _, cyclic, _ = skolem_chase(database, rules)
        _, ref_cyclic, _ = reference_skolem_chase(database, rules)
        assert cyclic is not None
        assert cyclic == ref_cyclic


# -- pattern-join equivalence ----------------------------------------------


def _random_cloud_and_bodies(seed):
    rng = random.Random(seed)
    predicates = [
        Predicate(f"q{i}", rng.randint(1, 3)) for i in range(3)
    ]
    num_classes = rng.randint(2, 5)
    cloud = frozenset(
        (
            pred,
            tuple(
                rng.randrange(num_classes) for _ in range(pred.arity)
            ),
        )
        for pred in predicates
        for _ in range(rng.randint(1, 5))
    )
    variables = [Variable(f"X{i}") for i in range(1, 5)]
    constant = Constant("a")
    bodies = []
    for _ in range(4):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(predicates)
            terms = [
                constant if rng.random() < 0.15 else rng.choice(variables)
                for _ in range(pred.arity)
            ]
            body.append(Atom(pred, terms))
        bodies.append(tuple(body))
    return cloud, bodies, {constant: 0}


class TestPatternJoinEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_indexed_matches_naive_on_random_clouds(self, seed):
        cloud, bodies, constant_class = _random_cloud_and_bodies(seed)
        for body in bodies:
            indexed = {
                frozenset(h.items())
                for h in pattern_homomorphisms(body, cloud, constant_class)
            }
            naive = {
                frozenset(h.items())
                for h in naive_pattern_homomorphisms(
                    body, cloud, constant_class
                )
            }
            assert indexed == naive

    def test_pattern_cloud_input_is_accepted_by_both(self):
        cloud, bodies, constant_class = _random_cloud_and_bodies(0)
        index = PatternCloud(cloud)
        for body in bodies:
            assert {
                frozenset(h.items())
                for h in pattern_homomorphisms(body, index, constant_class)
            } == {
                frozenset(h.items())
                for h in naive_pattern_homomorphisms(
                    body, index, constant_class
                )
            }

    def test_unknown_constant_matches_nothing(self):
        p = Predicate("p", 2)
        body = (Atom(p, [Variable("X"), Constant("missing")]),)
        cloud = frozenset([(p, (0, 1))])
        assert list(pattern_homomorphisms(body, cloud, {})) == []
        assert list(naive_pattern_homomorphisms(body, cloud, {})) == []


class TestGuardedDeciderEngines:
    """The decider over compiled pattern joins vs the same decider with
    every join routed through the naive backtracking scan."""

    @staticmethod
    def decide_naive(monkeypatch, rules, variant):
        calls = []

        def naive(body, cloud, constant_class):
            calls.append(body)
            return naive_pattern_homomorphisms(body, cloud, constant_class)

        with monkeypatch.context() as patch:
            patch.setattr(saturation_module, "pattern_homomorphisms", naive)
            verdict = decide_guarded(rules, variant)
        assert calls, "the naive scan never ran"
        return verdict

    @pytest.mark.parametrize(
        "rules,terminating",
        [
            (guarded_tower_family(3), True),
            (guarded_loop_family(2), False),
        ],
        ids=["tower", "loop"],
    )
    def test_both_engines_agree_on_families(
        self, monkeypatch, rules, terminating
    ):
        for variant in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS):
            indexed = decide_guarded(rules, variant)
            naive = self.decide_naive(monkeypatch, rules, variant)
            assert indexed.terminating == naive.terminating == terminating
            assert (indexed.witness is None) == (naive.witness is None)

    @pytest.mark.parametrize("seed", range(5))
    def test_both_engines_agree_on_random_guarded(self, monkeypatch, seed):
        rules = random_guarded(3, seed=seed)
        indexed = decide_guarded(rules, ChaseVariant.SEMI_OBLIVIOUS)
        naive = self.decide_naive(
            monkeypatch, rules, ChaseVariant.SEMI_OBLIVIOUS
        )
        assert indexed.terminating == naive.terminating

    def test_stats_report_pattern_joins(self):
        verdict = decide_guarded(
            guarded_tower_family(2), ChaseVariant.SEMI_OBLIVIOUS
        )
        assert verdict.stats["pattern_joins"] > 0
