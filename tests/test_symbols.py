"""The interned symbol table and the columnar fact core's id space.

Covers the interned-core PR's foundations:

* dense, deterministic id assignment and decode round-trips;
* priming (how a reopened durable store installs persisted ids);
* pickling across a ``spawn``-context process pool — tables and terms
  must survive a change of interpreter (and of hash seed);
* the instance-level consequences: identical executions assign
  identical ids, and instances rebuilt from flat int rows agree with
  the original fact-for-fact.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.model import Constant, Instance, Null, Predicate, SymbolTable
from repro.model.terms import intern_constant
from tests.conftest import atom


class TestSymbolTable:
    def test_dense_first_intern_order(self):
        table = SymbolTable()
        a, b = Constant("a"), Constant("b")
        assert table.intern(a) == 0
        assert table.intern(b) == 1
        assert table.intern(a) == 0  # idempotent
        assert len(table) == 2

    def test_decode_round_trip(self):
        table = SymbolTable()
        terms = [Constant("a"), Null(1), Constant(("nested", 2))]
        ids = [table.intern(t) for t in terms]
        assert [table.obj(i) for i in ids] == terms
        assert table.decode_many(ids) == terms

    def test_get_does_not_allocate(self):
        table = SymbolTable()
        assert table.get(Constant("a")) is None
        assert len(table) == 0

    def test_prime_installs_and_conflicts_raise(self):
        table = SymbolTable()
        table.prime(Constant("a"), 7)
        assert table.intern(Constant("a")) == 7
        assert table.obj(7) == Constant("a")
        table.prime(Constant("a"), 7)  # idempotent
        with pytest.raises(ValueError):
            table.prime(Constant("a"), 8)
        with pytest.raises(ValueError):
            table.prime(Constant("b"), 7)

    def test_fresh_ids_after_priming_do_not_collide(self):
        table = SymbolTable([(Constant("a"), 5)])
        assert table.intern(Constant("b")) == 6

    def test_identical_executions_assign_identical_ids(self):
        def build():
            inst = Instance()
            for i in range(10):
                inst.add(atom("e", f"c{i}", f"c{(i * 3) % 7}"))
            return inst

        left, right = build(), build()
        for fact in left:
            for term in fact.terms:
                assert left.term_id_get(term) == right.term_id_get(term)


def _round_trip_remote(payload):
    """Worker-side: unpickle happens on task receipt; re-encode the
    table's items and intern one more symbol to prove liveness."""
    table, probe = payload
    items = table.items()
    fresh = table.intern(probe)
    return items, fresh, table.obj(fresh)


class TestSpawnPoolRoundTrip:
    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessPoolExecutor(
            max_workers=1, mp_context=get_context("spawn")
        ) as pool:
            yield pool

    def test_symbol_table_survives_spawn_round_trip(self, pool):
        table = SymbolTable()
        terms = [Constant("a"), Null(3), Constant(("skolemish", 1))]
        for term in terms:
            table.intern(term)
        probe = Constant("added-remotely")
        items, fresh_id, fresh_obj = pool.submit(
            _round_trip_remote, (table, probe)
        ).result()
        # Same assignments on the receiving interpreter (hashes are
        # recomputed there — see repro.model.terms on why that matters).
        assert items == table.items()
        assert fresh_id == len(terms)
        assert fresh_obj == probe

    def test_interned_constants_stay_canonical_through_table(self, pool):
        # The table composes with the term-level intern tables: a
        # pickled Constant routes through intern_constant on arrival.
        table = SymbolTable()
        table.intern(intern_constant("canon"))
        items, _, _ = pool.submit(
            _round_trip_remote, (table, Constant("x"))
        ).result()
        assert items[0][0] == Constant("canon")

    def test_local_pickle_round_trip(self):
        table = SymbolTable()
        for name in "abc":
            table.intern(Constant(name))
        clone = pickle.loads(pickle.dumps(table))
        assert clone.items() == table.items()
        assert clone.intern(Constant("d")) == 3


class TestInstanceIdSpace:
    def test_mirror_rebuilt_from_rows_agrees_with_parent(self):
        # Rebuild an instance from (pred_id, row) pairs into a table
        # primed with the parent's symbols, as a reopened store does;
        # ordinals and rows agree.
        parent = Instance()
        p = Predicate("p", 2)
        facts = [atom("p", "a", "b"), atom("p", "b", "c"),
                 atom("p", "c", "a")]
        for fact in facts:
            parent.add(fact)
        pairs = parent.symbols.items()
        mirror = Instance(symbols=SymbolTable(pairs))
        mirror._store.prime_predicate(p, parent.pred_id(p))
        for ordinal in range(len(parent)):
            pid, row = parent.row_at(ordinal)
            assert mirror.add_row(pid, row) == ordinal
        assert mirror.facts() == parent.facts()
        assert len(mirror) == len(parent)

    def test_prepare_rules_fixes_rule_symbol_ids(self):
        # Rule symbols get ids before round 1, in rule-major, body-
        # before-head, position order; symbols already present keep
        # theirs and no fact is added.
        from repro.parser import parse_program

        inst = Instance([atom("p", "a")])
        inst.prepare_rules(parse_program(
            "q(X, k) -> exists Y . r(Y, m)\np(X), t(a) -> s(X, k)"
        ))
        assert len(inst) == 1
        preds = [Predicate(name, arity) for name, arity in
                 (("p", 1), ("q", 2), ("r", 2), ("t", 1), ("s", 2))]
        assert [inst.pred_id_get(p) for p in preds] == [0, 1, 2, 3, 4]
        terms = [Constant(name) for name in ("a", "k", "m")]
        assert [inst.term_id_get(t) for t in terms] == [0, 1, 2]

    def test_copy_preserves_id_assignments(self):
        inst = Instance([atom("p", "a"), atom("q", "a", "b")])
        clone = Instance(inst)
        for term in (Constant("a"), Constant("b")):
            assert clone.term_id_get(term) == inst.term_id_get(term)
        assert clone.facts() == inst.facts()
