"""The batch execution tier ≡ the tuple engine ≡ the oracle.

``repro.query.kernels`` adds two alternative evaluation engines to the
compiled-query stack: ``vector`` (NumPy-vectorized hash joins over the
interned int columns) and the leapfrog worst-case-optimal multiway
intersection that ``auto`` picks for cyclic joins.  The contract this
suite enforces, on randomized chase-grown instances with labelled
nulls and Skolem terms:

* ``vector`` is **order-exact**: its answer *sequence* equals the
  tuple engine's, byte for byte — which is why the chase engines may
  route trigger discovery through it without perturbing results.
* The leapfrog engine is **set-exact**: same answer set, enumeration
  order is the trie order instead of the DFS order.  The cases drive
  it through ``auto`` with the pick patched to it (the ``leapfrog``
  fixture), since no caller can force it.
* Both agree with the retained object-level oracle
  (:func:`repro.model.naive_homomorphisms`).
* Without NumPy (``_np`` forced to ``None``) ``vector`` and ``auto``
  run the tuple loop: answers and chases are those of ``tuple``.
* A chase run under ``kernel="vector"``/``"auto"`` is byte-identical
  to the default: same fact sequence, same step trigger keys.
"""

import random

import pytest

from repro.chase import ChaseVariant, critical_instance, run_chase
from repro.chase import delta as delta_module
from repro.chase.incremental import ChaseSession
from repro.cli import main as cli_main
from repro.cq import ConjunctiveQuery
from repro.model import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    TGD,
    Variable,
    naive_homomorphisms,
)
from repro.query import (
    CompiledQuery,
    KERNELS,
    choose_kernel,
    is_cyclic,
    numpy_active,
)
from repro.query import kernels as kernels_module
from repro.serve import ChaseService
from repro.termination import skolem_chase
from tests.conftest import atom

X, Y, Z, W = (Variable(n) for n in ("X", "Y", "Z", "W"))


def oracle_answer_set(answer_variables, atoms, instance):
    return {
        tuple(assignment[v] for v in answer_variables)
        for assignment in naive_homomorphisms(atoms, instance)
    }


def _random_program(rng):
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


def _edge_instance(n=40, extra=()):
    """A sparse digraph with planted triangles for cyclic queries."""
    inst = Instance()
    for i in range(n):
        inst.add(atom("e", f"v{i}", f"v{(i * 7 + 3) % n}"))
    for a, b in extra:
        inst.add(atom("e", a, b))
    return inst


TRIANGLE = [atom("e", "X", "Y"), atom("e", "Y", "Z"), atom("e", "Z", "X")]


@pytest.fixture
def leapfrog(monkeypatch):
    """The kernel value that runs the leapfrog engine on every query:
    ``auto``, with its pick patched to the engine only ``auto``
    reaches."""
    monkeypatch.setattr(kernels_module, "choose_kernel",
                        lambda atoms, instance: "wcoj")
    return "auto"


class TestKernelAnswerEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_vector_is_order_exact_and_oracle_equal(self, seed):
        rng = random.Random(seed + 2000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(4):
            query = _random_query(rng, preds)
            tuple_answers = list(query.answers(grown, kernel="tuple"))
            vector_answers = list(query.answers(grown, kernel="vector"))
            # Sequence equality, not just set equality.
            assert vector_answers == tuple_answers
            assert set(tuple_answers) == oracle_answer_set(
                query.answer_variables, query.atoms, grown
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_wcoj_is_set_exact_on_chase_grown(self, seed, leapfrog):
        rng = random.Random(seed + 3000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(4):
            query = _random_query(rng, preds)
            oracle = oracle_answer_set(
                query.answer_variables, query.atoms, grown
            )
            assert set(query.answers(grown, kernel=leapfrog)) == oracle

    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_agree_on_skolem_instances(self, seed, leapfrog):
        rng = random.Random(seed + 4000)
        rules, preds, consts = _random_program(rng)
        grown, _, _ = skolem_chase(critical_instance(rules), rules,
                                   max_steps=200)
        for _ in range(3):
            query = _random_query(rng, preds)
            tuple_answers = list(query.answers(grown, kernel="tuple"))
            assert (list(query.answers(grown, kernel="vector"))
                    == tuple_answers)
            assert (set(query.answers(grown, kernel=leapfrog))
                    == set(tuple_answers))

    @pytest.mark.parametrize("seed", range(5))
    def test_certain_answers_agree_across_kernels(self, seed, leapfrog):
        rng = random.Random(seed + 5000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(3):
            query = _random_query(rng, preds)
            expected = query.certain_answers(grown, kernel="tuple")
            assert query.certain_answers(grown, kernel="vector") == expected
            assert query.certain_answers(grown, kernel=leapfrog) == expected
            nulls = grown.nulls()
            for answer in expected:
                assert not any(isinstance(t, Null) for t in answer)
            del nulls

    @pytest.mark.parametrize("seed", range(5))
    def test_boolean_queries_agree_across_kernels(self, seed, leapfrog):
        rng = random.Random(seed + 6000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(4):
            query = _random_query(rng, preds)
            boolean = ConjunctiveQuery([], query.atoms)
            expected = boolean.holds_in(grown, kernel="tuple")
            assert boolean.holds_in(grown, kernel="vector") == expected
            assert boolean.holds_in(grown, kernel=leapfrog) == expected

    def test_auto_matches_tuple(self):
        inst = _edge_instance(extra=[("v1", "v0")])
        query = ConjunctiveQuery([X, Z], TRIANGLE)
        assert (set(query.answers(inst, kernel="auto"))
                == set(query.answers(inst, kernel="tuple")))

    def test_triangle_query_wcoj(self, leapfrog):
        inst = _edge_instance(
            n=30,
            extra=[("t0", "t1"), ("t1", "t2"), ("t2", "t0")],
        )
        query = ConjunctiveQuery([X, Y, Z], TRIANGLE)
        oracle = oracle_answer_set([X, Y, Z], TRIANGLE, inst)
        assert set(query.answers(inst, kernel=leapfrog)) == oracle
        assert set(query.answers(inst, kernel="vector")) == oracle
        assert (Constant("t0"), Constant("t1"), Constant("t2")) in oracle


def _chase_workload():
    """A join-heavy program over a seeded edge relation — enough rows
    that the batch tier actually engages in discovery."""
    rules = [
        TGD([atom("e", "X", "Y"), atom("e", "Y", "Z")],
            [atom("p", "X", "Z")]),
        TGD([atom("p", "X", "Y")],
            [Atom(Predicate("q", 2), [X, W])]),  # existential W
        TGD([atom("q", "X", "Y"), atom("e", "X", "Z")],
            [atom("r", "Y", "Z")]),
    ]
    db = Database()
    for i in range(60):
        db.add(atom("e", f"v{i}", f"v{(i * 11 + 5) % 60}"))
    return rules, db


class TestChaseByteIdentity:
    @pytest.mark.parametrize("variant", [
        ChaseVariant.OBLIVIOUS,
        ChaseVariant.SEMI_OBLIVIOUS,
        ChaseVariant.RESTRICTED,
    ])
    @pytest.mark.parametrize("kernel", ["vector", "auto"])
    def test_chase_is_byte_identical_across_kernels(self, variant, kernel):
        rules, db = _chase_workload()
        baseline = run_chase(db, rules, variant, max_steps=600,
                             kernel="tuple")
        routed = run_chase(db, rules, variant, max_steps=600,
                           kernel=kernel)
        assert routed.instance.facts() == baseline.instance.facts()
        assert len(routed.steps) == len(baseline.steps)
        for ours, theirs in zip(routed.steps, baseline.steps):
            assert ours.trigger.key(variant) == theirs.trigger.key(variant)

    @pytest.mark.skipif(not numpy_active(), reason="needs NumPy")
    def test_batch_discovery_is_chunked_and_order_exact(self, monkeypatch):
        # A 3,200-row frontier reaches the batch kernel in slices of at
        # most 1,024 pivot rows, and the trigger stream equals the
        # tuple loop's: rule index, ids and order.
        rules = [
            TGD([atom("e", "X", "Y"), atom("e", "Y", "Z")],
                [atom("p", "X", "Z")]),
            TGD([atom("e", "X", "Y")], [atom("r", "Y", "X")]),
        ]
        instance = Instance([atom("e", f"n{i}", f"n{i + 1}")
                             for i in range(3200)])
        frontier = list(range(len(instance)))
        sizes = []
        plain = kernels_module.batch_rule_matches

        def recording(instance, pivot_step, rest, pivot_rows, *args):
            sizes.append(len(pivot_rows))
            return plain(instance, pivot_step, rest, pivot_rows, *args)

        monkeypatch.setattr(kernels_module, "batch_rule_matches", recording)

        def stream(kernel):
            return [(t.rule_index, t._ids) for t in delta_module.
                    delta_triggers(rules, instance, frontier, kernel)]

        tuple_stream = stream("tuple")
        assert not sizes
        for kernel in ("vector", "auto"):
            sizes.clear()
            assert stream(kernel) == tuple_stream
            assert sizes and max(sizes) <= 1024
            assert sum(sizes) == 3 * 3200  # every pivot row, once

    def test_run_chase_rejects_unknown_kernel(self):
        rules, db = _chase_workload()
        with pytest.raises(ValueError):
            run_chase(db, rules, ChaseVariant.RESTRICTED, kernel="simd")


class TestWithoutNumpy:
    """With ``_np`` forced to ``None`` (NumPy not installed), a batch
    kernel would fail on first use; ``vector`` and ``auto`` must run
    the tuple loop instead, answering and chasing exactly like
    ``tuple``.  The ``auto`` thresholds are patched to zero so that
    every multi-atom pick and every discovery batch asks for the batch
    engine."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_np", None)
        monkeypatch.setattr(kernels_module, "AUTO_VECTOR_MIN_ROWS", 0)
        monkeypatch.setattr(delta_module, "_FAT_ROUND_MIN", 0)
        assert not numpy_active()

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_and_auto_answer_like_tuple(self, seed):
        rng = random.Random(seed + 7000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        for _ in range(3):
            query = _random_query(rng, preds)
            boolean = ConjunctiveQuery([], query.atoms)
            expected = (
                list(query.answers(grown, kernel="tuple")),
                query.certain_answers(grown, kernel="tuple"),
                boolean.holds_in(grown, kernel="tuple"),
            )
            for kernel in ("vector", "auto"):
                got = (
                    list(query.answers(grown, kernel=kernel)),
                    query.certain_answers(grown, kernel=kernel),
                    boolean.holds_in(grown, kernel=kernel),
                )
                if kernel == "auto" and is_cyclic(query.atoms):
                    # auto still runs the leapfrog engine: trie order.
                    assert (set(got[0]), got[1:]) == (
                        set(expected[0]), expected[1:]
                    )
                else:
                    assert got == expected

    @pytest.mark.parametrize("kernel", ["vector", "auto"])
    def test_chase_is_byte_identical(self, kernel):
        rules, db = _chase_workload()
        baseline = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS,
                             max_steps=400, kernel="tuple")
        routed = run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS,
                           max_steps=400, kernel=kernel)
        assert routed.instance.facts() == baseline.instance.facts()
        assert [s.trigger.key(ChaseVariant.SEMI_OBLIVIOUS)
                for s in routed.steps] == [
            s.trigger.key(ChaseVariant.SEMI_OBLIVIOUS)
            for s in baseline.steps]


class TestRemovedKernelValues:
    """``wcoj`` is not a kernel a caller can force, and the discovery
    kernel lives on the run, not on the data."""

    def test_every_library_entry_point_refuses_wcoj(self):
        rules, db = _chase_workload()
        query = ConjunctiveQuery([X], [atom("e", "X", "Y")])
        calls = [
            lambda: CompiledQuery([X], [atom("e", "X", "Y")], kernel="wcoj"),
            lambda: query.compiled("wcoj"),
            lambda: query.answers(db, kernel="wcoj"),
            lambda: query.certain_answers(db, kernel="wcoj"),
            lambda: query.holds_in(db, kernel="wcoj"),
            lambda: run_chase(db, rules, kernel="wcoj"),
            lambda: ChaseSession.start(db, rules, kernel="wcoj"),
            lambda: ChaseService(Instance(db), kernel="wcoj"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="unknown kernel 'wcoj'"):
                call()

    @pytest.mark.parametrize("command", ["chase", "query", "serve"])
    def test_cli_refuses_kernel_wcoj(self, command, tmp_path, capsys):
        rules = tmp_path / "rules.tgd"
        rules.write_text("e(X, Y) -> f(Y, X)\n")
        db = tmp_path / "db.facts"
        db.write_text("e(a, b)\n")
        argv = [command, str(rules), str(db), "--kernel", "wcoj"]
        if command == "query":
            argv.insert(3, "q(X) :- f(X, Y)")
        if command == "serve":
            argv += ["--port", "0"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'wcoj'" in capsys.readouterr().err

    def test_instance_has_no_kernel(self):
        with pytest.raises(AttributeError):
            Instance().kernel


class TestKernelSelection:
    def test_kernel_vocabulary(self):
        assert KERNELS == ("tuple", "vector", "auto")

    def test_triangle_is_cyclic(self):
        assert is_cyclic(TRIANGLE)

    def test_path_is_acyclic(self):
        assert not is_cyclic([atom("e", "X", "Y"), atom("e", "Y", "Z")])

    def test_single_atom_is_acyclic(self):
        assert not is_cyclic([atom("e", "X", "Y")])

    def test_choose_kernel_small_instance_is_tuple(self):
        inst = Instance([atom("e", "a", "b")])
        assert choose_kernel(
            tuple([atom("e", "X", "Y"), atom("f", "Y", "Z")]), inst
        ) == "tuple"

    def test_choose_kernel_cyclic_is_wcoj(self):
        inst = _edge_instance()
        assert choose_kernel(tuple(TRIANGLE), inst) == "wcoj"

    def test_compiled_query_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            CompiledQuery([X], [atom("e", "X", "Y")], kernel="gpu")


class TestEarlyOut:
    def test_unsatisfiable_constant_short_circuits(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("e", "X", "zzz")],
            kernel="tuple",
        )
        assert list(compiled.answers(inst)) == []
        assert compiled.stats["early_outs"] == 1

    def test_empty_relation_short_circuits(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("ghost", "Y")],
        )
        assert list(compiled.answers(inst)) == []
        assert compiled.stats["early_outs"] == 1

    def test_early_out_applies_to_every_verb(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [], [atom("e", "X", "Y"), atom("e", "X", "zzz")],
        )
        assert not compiled.holds_in(inst)
        assert list(compiled.certain_ids(inst)) == []
        assert compiled.stats["early_outs"] >= 2

    def test_early_out_is_not_sticky(self):
        # The relation can become satisfiable later: the check is per
        # call, not baked into the cached plan.
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("ghost", "Y")],
        )
        assert list(compiled.answers(inst)) == []
        inst.add(atom("ghost", "b"))
        assert list(compiled.answers(inst)) == [(Constant("a"),)]
