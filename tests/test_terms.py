"""Unit tests for repro.model.terms."""

import multiprocessing
import pickle
import threading

from repro.model import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    NullFactory,
    Predicate,
    TGD,
    Variable,
    intern_constant,
    intern_predicate,
    intern_variable,
    is_constant,
    is_ground,
    is_null,
    is_variable,
)
from repro.termination import SkolemTerm


class TestConstant:
    def test_equality_by_name(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_not_equal_to_variable_of_same_name(self):
        assert Constant("a") != Variable("a")

    def test_hashable_and_usable_in_sets(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2

    def test_ordering_is_by_string_name(self):
        assert Constant("a") < Constant("b")
        assert not Constant("b") < Constant("a")

    def test_str_and_repr(self):
        assert str(Constant("bob")) == "bob"
        assert "bob" in repr(Constant("bob"))

    def test_non_string_names_allowed(self):
        assert Constant(3) == Constant(3)
        assert Constant(3) != Constant("3")


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_ordering(self):
        assert Variable("A") < Variable("B")

    def test_str(self):
        assert str(Variable("X1")) == "X1"


class TestNull:
    def test_equality_by_index(self):
        assert Null(1) == Null(1)
        assert Null(1) != Null(2)

    def test_origin_does_not_affect_identity(self):
        assert Null(1, "r1:Z") == Null(1, "other")

    def test_ordering_by_index(self):
        assert Null(1) < Null(2)

    def test_str_uses_z_prefix(self):
        assert str(Null(7)) == "z7"

    def test_distinct_from_constant(self):
        assert Null(1) != Constant(1)


class TestNullFactory:
    def test_fresh_nulls_are_distinct_and_increasing(self):
        factory = NullFactory()
        a, b, c = factory.fresh(), factory.fresh(), factory.fresh()
        assert a != b != c
        assert a.index < b.index < c.index

    def test_fresh_many_returns_ordered(self):
        nulls = NullFactory().fresh_many(5)
        assert len(nulls) == 5
        assert sorted(nulls) == nulls
        assert len(set(nulls)) == 5

    def test_custom_start(self):
        assert NullFactory(start=100).fresh().index == 100

    def test_origin_recorded(self):
        assert NullFactory().fresh("r1:Z").origin == "r1:Z"

    def test_independent_factories_reuse_indices(self):
        assert NullFactory().fresh() == NullFactory().fresh()


class TestKindPredicates:
    def test_is_constant(self):
        assert is_constant(Constant("a"))
        assert not is_constant(Variable("X"))
        assert not is_constant(Null(1))

    def test_is_variable(self):
        assert is_variable(Variable("X"))
        assert not is_variable(Constant("a"))

    def test_is_null(self):
        assert is_null(Null(1))
        assert not is_null(Constant("a"))

    def test_is_ground(self):
        assert is_ground(Constant("a"))
        assert is_ground(Null(1))
        assert not is_ground(Variable("X"))


# -- pickling and interning (stores are read by other interpreters) -------
#
# Every term caches its hash; a cached hash is only meaningful under the
# interpreter that computed it (string hashing is randomized per
# process).  The __reduce__ protocol therefore rebuilds terms through
# their constructors — recomputing hashes — and funnels constants,
# variables, and predicates through threading.Lock-guarded intern
# tables.  The spawn-pool test exercises the full cross-interpreter
# round trip: a term pickled into a worker with a different hash seed
# must still hit dict entries keyed by worker-local equal terms.


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestPickleRoundTrips:
    def test_terms_rebuild_through_constructors(self):
        for term in (Constant("a"), Variable("X"), Null(7, "r1:Z")):
            clone = _roundtrip(term)
            assert clone == term
            assert hash(clone) == hash(term)
        assert _roundtrip(Null(7, "r1:Z")).origin == "r1:Z"

    def test_constants_and_variables_intern(self):
        assert _roundtrip(Constant("a")) is _roundtrip(Constant("a"))
        assert _roundtrip(Variable("X")) is _roundtrip(Variable("X"))
        p = Predicate("p", 2)
        assert _roundtrip(p) is _roundtrip(p)

    def test_atom_rule_instance_roundtrip(self):
        p = Predicate("p", 2)
        fact = Atom(p, [Constant("a"), Null(3)])
        assert _roundtrip(fact) == fact
        rule = TGD(
            [Atom(p, [Variable("X"), Variable("Y")])],
            [Atom(p, [Variable("Y"), Variable("X")])],
            label="swap",
        )
        clone = _roundtrip(rule)
        assert clone == rule
        assert clone.label == "swap"
        assert clone.frontier_sorted == rule.frontier_sorted
        instance = Instance([fact, Atom(p, [Constant("b"), Constant("c")])])
        inst_clone = _roundtrip(instance)
        assert inst_clone.facts() == instance.facts()
        assert inst_clone.facts_matching(p, {0: Constant("b")}) == [
            Atom(p, [Constant("b"), Constant("c")])
        ]
        assert type(_roundtrip(Database([Atom(p, [Constant("a"),
                                                  Constant("b")])]))) \
            is Database

    def test_skolem_term_keeps_structure(self):
        base = SkolemTerm((0, "Z"), (Constant("*"),))
        nested = SkolemTerm((0, "Z"), (base,))
        clone = _roundtrip(nested)
        assert type(clone) is SkolemTerm
        assert clone == nested
        assert clone.is_cyclic() and clone.depth() == 2

    def test_intern_tables_are_thread_safe(self):
        results = []

        def intern_many():
            results.append(
                [
                    (
                        intern_constant("shared-c"),
                        intern_variable("SharedV"),
                        intern_predicate("shared_p", 3),
                    )
                    for _ in range(200)
                ]
            )

        threads = [threading.Thread(target=intern_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [trio for chunk in results for trio in chunk]
        first = flat[0]
        assert all(
            c is first[0] and v is first[1] and p is first[2]
            for c, v, p in flat
        )


def _lookup_in_worker(payload):
    """Spawn-pool worker: look shipped terms up in dicts keyed by
    worker-locally constructed equal terms (fails with stale hashes)."""
    constant, atom, rule = payload
    local_const = Constant("k0")
    local_atom = Atom(Predicate("edge", 2), [Constant("k0"), Constant("k1")])
    table = {local_const: "const", local_atom: "atom"}
    return (
        table.get(constant),
        table.get(atom),
        rule.frontier_sorted == tuple(sorted(rule.frontier)),
        hash(constant) == hash(local_const),
    )


class TestSpawnPoolRoundTrip:
    def test_interned_terms_survive_spawn_pickling(self):
        edge = Predicate("edge", 2)
        payload = (
            Constant("k0"),
            Atom(edge, [Constant("k0"), Constant("k1")]),
            TGD(
                [Atom(edge, [Variable("X"), Variable("Y")])],
                [Atom(edge, [Variable("Y"), Variable("X")])],
            ),
        )
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            const_hit, atom_hit, rule_ok, hash_ok = pool.apply(
                _lookup_in_worker, (payload,)
            )
        assert const_hit == "const"
        assert atom_hit == "atom"
        assert rule_ok
        assert hash_ok
