"""Unit tests for the type-saturation engine (the Theorem 4 core)."""

import pytest

from repro.errors import BudgetExceededError, UnsupportedClassError
from repro.model import Constant, Predicate
from repro.parser import parse_database, parse_program
from repro.runtime import Budget
from repro.termination import (
    TransitionGraph,
    TypeAnalysis,
    decide_guarded,
    decide_termination,
)
from repro.termination.abstraction import FRESH
from repro.workloads import (
    chain_family,
    guarded_loop_family,
    guarded_tower_family,
)


class TestConstruction:
    def test_rejects_unguarded(self):
        rules = parse_program("p(X, Y), q(Y, Z) -> r(X, Z)")
        with pytest.raises(UnsupportedClassError):
            TypeAnalysis(rules)

    def test_root_is_critical_instance_abstraction(self):
        rules = parse_program("p(X, Y) -> exists Z . q(Y, Z)")
        analysis = TypeAnalysis(rules)
        # single constant *, all patterns over it
        assert analysis.num_constants == 1
        assert len(analysis.root.cloud) == 2  # p(*,*), q(*,*)

    def test_program_constants_widen_root(self):
        rules = parse_program("p(X, a) -> q(X)")
        analysis = TypeAnalysis(rules)
        assert analysis.num_constants == 2
        p = Predicate("p", 2)
        assert sum(1 for pr, _ in analysis.root.cloud if pr == p) == 4

    def test_standard_adds_three_constants_and_zero_one(self):
        rules = parse_program("p(X) -> q(X)")
        analysis = TypeAnalysis(rules, standard=True)
        assert analysis.num_constants == 3
        assert "zero" in analysis.schema
        assert "one" in analysis.schema

    def test_standard_and_database_exclusive(self):
        rules = parse_program("p(X) -> q(X)")
        with pytest.raises(ValueError):
            TypeAnalysis(rules, standard=True,
                         database=parse_database("p(a)"))

    def test_database_root(self):
        rules = parse_program("p(X) -> q(X)")
        analysis = TypeAnalysis(rules, database=parse_database("p(a)\np(b)"))
        assert analysis.num_constants == 2
        assert len(analysis.root.cloud) == 2


class TestSaturationSemantics:
    def test_full_rules_close_locally(self):
        rules = parse_program("p(X) -> q(X)\nq(X) -> r(X)")
        analysis = TypeAnalysis(rules, database=parse_database("p(a)"))
        analysis.saturate()
        cloud = analysis.saturated_cloud(analysis.root)
        names = {pred.name for pred, _ in cloud}
        assert names == {"p", "q", "r"}

    def test_up_propagation_through_children(self):
        # a(X) creates e(X, Y); the child derives back a fact over the
        # inherited X — the parent's cloud must receive marked(X).
        rules = parse_program(
            """
            a(X) -> exists Y . e(X, Y)
            e(X, Y) -> marked(X)
            """
        )
        analysis = TypeAnalysis(rules, database=parse_database("a(c)"))
        analysis.saturate()
        cloud = analysis.saturated_cloud(analysis.root)
        marked = Predicate("marked", 1)
        c_class = analysis.constant_class[Constant("c")]
        assert (marked, (c_class,)) in cloud

    def test_iterated_up_and_down_propagation(self):
        # Two levels: the grandchild's derivation must reach the root.
        rules = parse_program(
            """
            a(X) -> exists Y . e(X, Y)
            e(X, Y) -> exists Z . f(Y, Z)
            f(Y, Z) -> done(Y)
            e(X, Y), done(Y) -> ok(X)
            """
        )
        analysis = TypeAnalysis(rules, database=parse_database("a(c)"))
        analysis.saturate()
        cloud = analysis.saturated_cloud(analysis.root)
        ok = Predicate("ok", 1)
        c_class = analysis.constant_class[Constant("c")]
        assert (ok, (c_class,)) in cloud

    def test_child_edges_have_registered_targets(self):
        rules = parse_program("g(X, Y), q(Y) -> exists Z . g(Y, Z), q(Z)")
        analysis = TypeAnalysis(rules)
        analysis.saturate()
        for bag_type in list(analysis.table):
            for edge in analysis.child_edges(bag_type):
                assert edge.target in analysis.table

    def test_flow_marks_inherited_and_fresh(self):
        rules = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
        analysis = TypeAnalysis(rules)
        analysis.saturate()
        flows = [
            sorted(edge.flow.values(), key=str)
            for bag_type in analysis.table
            for edge in analysis.child_edges(bag_type)
        ]
        assert any(FRESH in flow for flow in flows)

    def test_trigger_classes_oblivious_superset_of_semi(self):
        rules = parse_program("p(X, Y) -> exists Z . q(X, Z)")
        analysis = TypeAnalysis(rules)
        analysis.saturate()
        for bag_type in analysis.table:
            for edge in analysis.child_edges(bag_type):
                assert edge.trigger_so <= edge.trigger_o

    def test_type_budget_enforced(self):
        rules = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
        with pytest.raises(BudgetExceededError):
            analysis = TypeAnalysis(rules, max_types=1)
            analysis.saturate()

    def test_type_count_stable_after_saturation(self):
        rules = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
        analysis = TypeAnalysis(rules)
        analysis.saturate()
        count = analysis.type_count()
        analysis.saturate()
        assert analysis.type_count() == count


class TestWorklist:
    """Exact work counts of the worklist saturation, as recorded in
    PERF.md ("Saturation worklist").  Counts do not depend on the
    host's speed; the round-robin sweep it replaced did 880, 3560 and
    14320 joins on these chains, 5/24/75/136 on the towers and
    46/96/164/250 on the loops."""

    @pytest.mark.parametrize(
        "length, joins", [(10, 280), (20, 1160), (40, 4720)]
    )
    def test_chain_pattern_joins(self, length, joins):
        verdict = decide_termination(chain_family(length), method="guarded")
        assert verdict.stats["pattern_joins"] == joins

    @pytest.mark.parametrize(
        "levels, tower_joins, loop_joins",
        [(1, 2, 14), (2, 8, 30), (3, 21, 52), (4, 40, 80)],
    )
    def test_e4_family_pattern_joins(self, levels, tower_joins, loop_joins):
        tower = decide_guarded(guarded_tower_family(levels), "semi_oblivious")
        loop = decide_guarded(guarded_loop_family(levels), "semi_oblivious")
        assert tower.stats["pattern_joins"] == tower_joins
        assert loop.stats["pattern_joins"] == loop_joins

    def test_edge_discovery_reuses_the_last_joins(self):
        analysis = TypeAnalysis(guarded_loop_family(2))
        analysis.saturate()
        joins = analysis.pattern_joins
        graph = TransitionGraph(analysis)
        assert graph.stats()["edges"] > 0
        assert analysis.pattern_joins == joins

    def test_saturation_resumes_after_a_cut_pass(self):
        # The type budget trips inside the root's first pass, after
        # b(c) was derived into its live cloud; raising the budget and
        # saturating again must still derive it.
        rules = parse_program("a(X) -> b(X)\na(X) -> exists Y . e(X, Y)")
        database = parse_database("a(c)")
        full = TypeAnalysis(rules, database=database)
        full.saturate()
        analysis = TypeAnalysis(rules, database=database, max_types=1)
        with pytest.raises(BudgetExceededError):
            analysis.saturate()
        analysis.max_types = len(full.table)
        analysis.saturate()
        assert analysis.table == full.table

    def test_one_round_is_one_generation(self):
        # Saturating this program takes five worklist generations; a
        # budget of k rounds stops it before generation k + 1 begins.
        rules = parse_program(
            "r(X, Y), p(Y) -> exists Z . r(Y, Z)\nr(X, Y) -> p(Y)"
        )
        for rounds in (1, 4):
            with pytest.raises(BudgetExceededError) as info:
                decide_guarded(
                    rules, "semi_oblivious", budget=Budget(max_rounds=rounds)
                )
            assert info.value.stop_reason == "step_budget"
        budget = Budget(max_rounds=5)
        decide_guarded(rules, "semi_oblivious", budget=budget)
        assert budget.rounds == 5
