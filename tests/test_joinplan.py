"""Unit tests for the term-level indexes and compiled join plans."""

from repro.model import (
    Constant,
    Instance,
    Predicate,
    Variable,
    homomorphisms,
    order_atoms,
)
from tests.conftest import atom, tgd


class TestFactsMatching:
    def setup_method(self):
        self.inst = Instance([
            atom("e", "a", "b"), atom("e", "a", "c"), atom("e", "b", "c"),
            atom("p", "a"),
        ])
        self.e = Predicate("e", 2)

    def test_empty_bindings_is_whole_relation(self):
        assert self.inst.facts_matching(self.e, {}) == [
            atom("e", "a", "b"), atom("e", "a", "c"), atom("e", "b", "c"),
        ]

    def test_single_position_probe(self):
        assert self.inst.facts_matching(self.e, {0: Constant("a")}) == [
            atom("e", "a", "b"), atom("e", "a", "c"),
        ]
        assert self.inst.facts_matching(self.e, {1: Constant("c")}) == [
            atom("e", "a", "c"), atom("e", "b", "c"),
        ]

    def test_multi_position_probe_filters(self):
        assert self.inst.facts_matching(
            self.e, {0: Constant("a"), 1: Constant("c")}
        ) == [atom("e", "a", "c")]

    def test_miss_returns_empty(self):
        assert self.inst.facts_matching(self.e, {0: Constant("zz")}) == []
        assert self.inst.facts_matching(Predicate("zz", 1),
                                        {0: Constant("a")}) == []

    def test_fully_bound_is_membership_probe(self):
        assert self.inst.facts_matching(
            self.e, {0: Constant("a"), 1: Constant("b")}
        ) == [atom("e", "a", "b")]
        assert self.inst.facts_matching(
            self.e, {0: Constant("b"), 1: Constant("b")}
        ) == []

    def test_out_of_range_position_matches_nothing(self):
        # Also guards the fully-bound fast path: two bindings on a
        # binary predicate, but one position out of range.
        assert self.inst.facts_matching(
            self.e, {1: Constant("b"), 2: Constant("a")}
        ) == []
        assert self.inst.facts_matching(self.e, {5: Constant("a")}) == []

    def test_insertion_order_preserved(self):
        inst = Instance()
        facts = [atom("e", "x", str(i)) for i in (3, 1, 2)]
        for f in facts:
            inst.add(f)
        assert inst.facts_matching(self.e, {0: Constant("x")}) == facts

    def test_index_tracks_additions(self):
        self.inst.add(atom("e", "a", "d"))
        assert self.inst.facts_matching(self.e, {0: Constant("a")}) == [
            atom("e", "a", "b"), atom("e", "a", "c"), atom("e", "a", "d"),
        ]


class TestFactsWithPredicateCaching:
    def test_snapshot_is_cached_until_growth(self):
        inst = Instance([atom("p", "a"), atom("p", "b")])
        p = Predicate("p", 1)
        first = inst.facts_with_predicate(p)
        assert inst.facts_with_predicate(p) is first
        inst.add(atom("p", "c"))
        rebuilt = inst.facts_with_predicate(p)
        assert rebuilt is not first
        assert rebuilt == (atom("p", "a"), atom("p", "b"), atom("p", "c"))
        # The old snapshot is immutable and unchanged.
        assert first == (atom("p", "a"), atom("p", "b"))

    def test_count_with_predicate(self):
        inst = Instance([atom("p", "a"), atom("p", "b")])
        assert inst.count_with_predicate(Predicate("p", 1)) == 2
        assert inst.count_with_predicate(Predicate("q", 1)) == 0


class TestOrderAtoms:
    def test_most_constrained_first(self):
        inst = Instance(
            [atom("big", str(i), str(i + 1)) for i in range(10)]
            + [atom("small", "1")]
        )
        ordered = order_atoms(
            [atom("big", "X", "Y"), atom("small", "X")], inst
        )
        assert ordered[0] == atom("small", "X")

    def test_connected_atoms_preferred_over_smaller_disconnected(self):
        inst = Instance(
            [atom("big", str(i), str(i + 1)) for i in range(10)]
            + [atom("small", "1")]
        )
        # With X pre-bound, big shares a variable while small does not:
        # the join must not start a cross-product with small.
        ordered = order_atoms(
            [atom("small", "Z"), atom("big", "X", "Y")],
            inst,
            bound=frozenset({Variable("X")}),
        )
        assert ordered[0] == atom("big", "X", "Y")

    def test_new_vars_breaks_fan_out_ties(self):
        # Same relation (same fan-out): the atom introducing fewer new
        # variables is the more constrained join step.
        inst = Instance([atom("e", "a", "b"), atom("e", "b", "c")])
        ordered = order_atoms(
            [atom("e", "X", "Y"), atom("e", "Z", "Z")], inst
        )
        assert ordered[0] == atom("e", "Z", "Z")


class TestPlanCaching:
    def test_join_executes(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "b", "c")])
        results = list(
            homomorphisms([atom("e", "X", "Y"), atom("e", "Y", "Z")], inst)
        )
        assert results == [{
            Variable("X"): Constant("a"),
            Variable("Y"): Constant("b"),
            Variable("Z"): Constant("c"),
        }]

    def test_run_restores_scratch_assignment(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "b", "c")])
        scratch = {}
        list(homomorphisms([atom("e", "X", "Y")], inst, scratch))
        assert scratch == {}

    def test_first_finds_existence(self):
        inst = Instance([atom("e", "a", "b")])
        body = [atom("e", "X", "Y")]
        assert next(homomorphisms(body, inst), None) is not None
        missing = homomorphisms(body, inst, {Variable("X"): Constant("zz")})
        assert next(missing, None) is None


class TestPlanMatching:
    """Per-atom matching, checked through ``homomorphisms``: repeated
    variables, constants, bound variables and index probes."""

    def test_repeated_variable_checked(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "c", "c")])
        assert list(homomorphisms([atom("e", "X", "X")], inst)) == [
            {Variable("X"): Constant("c")}
        ]

    def test_bound_variable_respected(self):
        inst = Instance([atom("e", "a", "c"), atom("e", "b", "c")])
        results = list(homomorphisms(
            [atom("e", "X", "Y")], inst, {Variable("X"): Constant("b")}
        ))
        assert [r[Variable("Y")] for r in results] == [Constant("c")]
        assert all(r[Variable("X")] == Constant("b") for r in results)

    def test_unmentioned_partial_variables_pass_through(self):
        inst = Instance([atom("e", "a", "b")])
        results = list(homomorphisms(
            [atom("e", "X", "Y")], inst, {Variable("W"): Constant("d")}
        ))
        assert results == [{
            Variable("W"): Constant("d"),
            Variable("X"): Constant("a"),
            Variable("Y"): Constant("b"),
        }]

    def test_constant_positions_checked(self):
        inst = Instance([atom("e", "b", "c"), atom("e", "a", "d")])
        assert list(homomorphisms([atom("e", "a", "X")], inst)) == [
            {Variable("X"): Constant("d")}
        ]

    def test_failed_match_leaves_assignment_untouched(self):
        inst = Instance([atom("q", "a", "b", "c")])
        assignment = {Variable("Y"): Constant("z")}
        matches = homomorphisms([atom("q", "X", "X", "Y")], inst, assignment)
        assert next(matches, None) is None
        assert assignment == {Variable("Y"): Constant("z")}

    def test_bound_positions_probe_in_insertion_order(self):
        inst = Instance([atom("e", "a", "b"), atom("e", "b", "c"),
                         atom("e", "b", "d")])
        body = [atom("e", "X", "Y")]
        assert len(list(homomorphisms(body, inst))) == 3
        probed = homomorphisms(body, inst, {Variable("X"): Constant("b")})
        assert [r[Variable("Y")] for r in probed] == [
            Constant("c"), Constant("d"),
        ]


class TestRuleSortedOrders:
    def test_sorted_orders_precomputed(self):
        rule = tgd(
            [atom("e", "Yb", "Xa")],
            [atom("p", "Xa", "Yb", "Zc", "Za")],
        )
        assert rule.frontier_sorted == (Variable("Xa"), Variable("Yb"))
        assert rule.existentials_sorted == (Variable("Za"), Variable("Zc"))
        assert rule.body_variables_sorted == (Variable("Xa"), Variable("Yb"))

    def test_sorted_orders_survive_rename(self):
        rule = tgd([atom("e", "X", "Y")], [atom("p", "Y", "Z")])
        renamed = rule.rename_apart("_1")
        assert renamed.frontier_sorted == (Variable("Y_1"),)
        assert renamed.existentials_sorted == (Variable("Z_1"),)
