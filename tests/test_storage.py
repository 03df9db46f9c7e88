"""Durable fact stores: save/open equivalence, checkpoint/resume
byte-identity, and the persistence CLI.

The contract under test is the strongest one the engine offers: a
saved run, reopened and resumed — after any stop reason, across any
number of legs — must be *byte-identical* to the
uninterrupted in-memory run: same facts in the same order, same
trigger keys, same provenance ordinals, same null numbering.
"""

import os
import pickle

import pytest

from repro.chase import (
    ChaseVariant,
    load_state,
    resume_chase,
    run_chase,
)
from repro.cli import main
from repro.model import Atom, Null, Predicate, Variable
from repro.parser import parse_database, parse_program
from repro.query.planner import order_atoms_cost
from repro.runtime.budget import Budget
from repro.storage import (
    DurableFactStore,
    FactStore,
    StoreFormatError,
    open_instance,
    open_store,
    read_manifest,
    save_store,
)
from repro.workloads import random_database, random_simple_linear

PROGRAM = """
emp(X) -> exists D . works(X, D)
works(X, D) -> dept(D)
dept(D) -> exists M . head(D, M)
head(D, M) -> person(M)
emp(X) -> person(X)
"""

DATABASE = "emp(ada)\nemp(alan)\nemp(grace)"


def chain_workload(n=16):
    """A deterministic ~170-step terminating workload: transitive
    closure over an ``n``-edge chain plus one existential tagger."""
    rules = parse_program(
        """
        e(X, Y) -> p(X, Y)
        p(X, Y), e(Y, Z) -> p(X, Z)
        p(X, Y) -> exists W . tag(Y, W)
        """
    )
    db = parse_database(
        "\n".join(f"e(n{i}, n{i + 1})" for i in range(n))
    )
    return rules, db


@pytest.fixture
def rules():
    return parse_program(PROGRAM)


@pytest.fixture
def db():
    return parse_database(DATABASE)


def fingerprint(result):
    """Facts order + trigger keys + provenance ordinals — the
    byte-identity relation used throughout this module."""
    variant = result.variant
    return (
        result.instance.facts(),
        tuple(step.trigger.key(variant) for step in result.steps),
        tuple(step._ordinals for step in result.steps),
    )


# -- save / reopen equivalence ---------------------------------------------


class TestSaveReopen:
    def test_reopened_store_is_byte_identical(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        assert result.terminated
        path = str(tmp_path / "store")
        save_store(result.instance._store, path)

        reopened = open_instance(path)
        assert isinstance(reopened._store, DurableFactStore)
        assert reopened.facts() == result.instance.facts()
        # Null identity survives the round trip, not just fact count.
        assert any(
            isinstance(t, Null) for f in reopened.facts() for t in f.terms
        )

    def test_reopen_is_lazy_until_touched(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        save_store(result.instance._store, path)

        store = open_store(path)
        assert not store.loaded()
        # Counts and per-column statistics come straight from the
        # manifest — no segment is decoded to answer them.
        works = Predicate("works", 2)
        pid = store.pred_ids[works]
        assert store.count_rows(pid) == result.instance.count_with_predicate(
            works
        )
        assert store.distinct_at(pid, 0) == result.instance._store.distinct_at(
            result.instance._store.pred_ids[works], 0
        )
        assert not store.loaded()
        store.ensure_all()
        assert store.loaded()
        assert store.size() == len(result.instance)

    def test_distinct_at_drives_identical_plans(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        save_store(result.instance._store, path)
        reopened = open_instance(path)

        mem_store = result.instance._store
        dur_store = reopened._store
        for pred, pid in mem_store.pred_ids.items():
            dur_pid = dur_store.pred_ids[pred]
            for position in range(pred.arity):
                assert mem_store.distinct_at(pid, position) == (
                    dur_store.distinct_at(dur_pid, position)
                ), (pred, position)

        X, D, M = Variable("X"), Variable("D"), Variable("M")
        atoms = [
            Atom(Predicate("works", 2), [X, D]),
            Atom(Predicate("head", 2), [D, M]),
            Atom(Predicate("person", 1), [M]),
        ]
        assert order_atoms_cost(atoms, reopened) == order_atoms_cost(
            atoms, result.instance
        )

    def test_copy_and_eq_are_backend_agnostic(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        save_store(result.instance._store, path)
        reopened = open_instance(path)

        assert reopened == result.instance
        copied = reopened.copy()
        # copy() always lands on the in-memory backend, via the store
        # API only.
        assert type(copied._store) is FactStore
        assert copied == reopened
        person = Predicate("person", 1)
        assert reopened.facts_with_predicate(person) == (
            result.instance.facts_with_predicate(person)
        )

    def test_save_refuses_then_overwrites(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        result.instance.save(path)
        with pytest.raises(FileExistsError):
            result.instance.save(path)
        result.instance.save(path, overwrite=True)
        assert open_instance(path) == result.instance

    def test_manifest_counts_match(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        save_store(result.instance._store, path)
        manifest = read_manifest(path)
        assert manifest["facts"] == len(result.instance)
        assert sum(
            meta["rows"] for meta in manifest["predicates"].values()
        ) == len(result.instance)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_roundtrip_property_random_workloads(self, seed, tmp_path):
        """Chase-grown instances (nulls included) survive save/open
        and ChaseResult survives pickle, byte-identically."""
        rules = random_simple_linear(4, seed=seed)
        db = random_database(rules, seed=seed)
        result = run_chase(db, rules, "semi_oblivious", max_steps=200)
        path = str(tmp_path / f"store{seed}")
        save_store(result.instance._store, path)
        assert open_instance(path).facts() == result.instance.facts()

        clone = pickle.loads(pickle.dumps(result))
        assert clone.instance.facts() == result.instance.facts()
        assert clone.terminated == result.terminated
        assert clone.stop_reason == result.stop_reason


# -- checkpoint / resume ----------------------------------------------------


class TestCheckpointResume:
    @pytest.mark.parametrize("variant", ChaseVariant.ALL)
    def test_step_budget_stop_resumes_byte_identical(
        self, rules, db, tmp_path, variant
    ):
        ref = run_chase(db, rules, variant, max_steps=500)
        assert ref.terminated

        path = str(tmp_path / "store")
        part = run_chase(db, rules, variant, max_steps=5, save=path)
        assert not part.terminated and part.stop_reason == "step_budget"

        res = resume_chase(path, max_steps=500)
        assert res.terminated
        assert fingerprint(res) == fingerprint(ref)

    @pytest.mark.parametrize("variant", ChaseVariant.ALL)
    def test_uninterrupted_save_matches_plain_run(
        self, rules, db, tmp_path, variant
    ):
        ref = run_chase(db, rules, variant, max_steps=500)
        saved = run_chase(
            db, rules, variant, max_steps=500, save=str(tmp_path / "s")
        )
        assert fingerprint(saved) == fingerprint(ref)

    @pytest.mark.parametrize("variant", ChaseVariant.ALL)
    def test_chained_multi_leg_resume(self, rules, db, tmp_path, variant):
        ref = run_chase(db, rules, variant, max_steps=500)
        path = str(tmp_path / "store")
        r = run_chase(db, rules, variant, max_steps=3, save=path)
        legs = 1
        while not r.terminated:
            legs += 1
            assert legs < 50
            r = resume_chase(path, max_steps=3 * legs)
        assert legs > 2
        assert fingerprint(r) == fingerprint(ref)

    def test_resume_of_finished_store_returns_immediately(
        self, rules, db, tmp_path
    ):
        ref = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=500, save=path)
        again = resume_chase(path)
        assert again.terminated
        assert fingerprint(again) == fingerprint(ref)

    def test_deadline_stop_resumes_byte_identical(self, rules, db, tmp_path):
        ref = run_chase(db, rules, "semi_oblivious", max_steps=500)
        ticks = iter([0.0] * 3 + [100.0] * 1000)
        budget = Budget(timeout_s=1.0, clock=lambda: next(ticks))
        path = str(tmp_path / "store")
        part = run_chase(
            db, rules, "semi_oblivious", max_steps=500, save=path,
            budget=budget,
        )
        assert not part.terminated and part.stop_reason == "deadline"
        assert 0 < part.step_count < ref.step_count

        res = resume_chase(path, max_steps=500)
        assert res.terminated
        assert fingerprint(res) == fingerprint(ref)

    def test_resume_long_chain_byte_identical(self, tmp_path):
        rules, db = chain_workload()
        ref = run_chase(db, rules, "semi_oblivious", max_steps=2000)
        assert ref.terminated
        path = str(tmp_path / "store")
        part = run_chase(db, rules, "semi_oblivious", max_steps=40, save=path)
        assert not part.terminated

        res = resume_chase(path, max_steps=2000)
        assert res.terminated
        assert fingerprint(res) == fingerprint(ref)

    def test_resume_rejects_mismatched_rules(self, rules, db, tmp_path):
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=5, save=path)
        other = parse_program("emp(X) -> person(X)")
        with pytest.raises(ValueError, match="rules"):
            resume_chase(path, rules=other)

    def test_save_rejects_shuffled_rounds(self, rules, db, tmp_path):
        with pytest.raises(ValueError, match="order_seed"):
            run_chase(
                db, rules, "restricted", max_steps=5,
                save=str(tmp_path / "a"), order_seed=7,
            )

    def test_plain_save_can_be_queried_not_resumed(self, rules, db, tmp_path):
        result = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "plain")
        save_store(result.instance._store, path)
        assert open_instance(path) == result.instance
        with pytest.raises(StoreFormatError, match="quer"):
            resume_chase(path)

    def test_torn_checkpoint_is_refused(self, rules, db, tmp_path):
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=5, save=path)
        store = open_store(path)
        state_path = os.path.join(path, "chase.pkl")
        with open(state_path, "rb") as handle:
            state = pickle.load(handle)
        state["facts"] += 1  # header ahead of the data files
        with open(state_path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(StoreFormatError):
            load_state(path, store)

    @staticmethod
    def _rewrite_planner(path, planner):
        """Give the header the ``planner`` key older builds wrote
        (``None`` drops it)."""
        state_path = os.path.join(path, "chase.pkl")
        with open(state_path, "rb") as handle:
            state = pickle.load(handle)
        state.pop("planner", None)
        if planner is not None:
            state["planner"] = planner
        with open(state_path, "wb") as handle:
            pickle.dump(state, handle)

    def test_cost_ordered_checkpoint_is_refused(
        self, rules, db, tmp_path, capsys
    ):
        # A run saved under the cost join order numbered its nulls in
        # another discovery order; continuing it in the syntactic
        # order would not be byte-identical to finishing it there.
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=5, save=path)
        self._rewrite_planner(path, "cost")
        with pytest.raises(StoreFormatError, match="'cost'"):
            load_state(path, open_store(path))
        assert main(["chase", "--resume", path]) == 2
        assert "'cost'" in capsys.readouterr().err

    @pytest.mark.parametrize("planner", ["heuristic", None])
    def test_syntactic_or_unmarked_checkpoint_resumes(
        self, rules, db, tmp_path, planner
    ):
        reference = run_chase(db, rules, "restricted", max_steps=500)
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=5, save=path)
        self._rewrite_planner(path, planner)
        resumed = resume_chase(path, max_steps=500)
        assert resumed.instance.facts() == reference.instance.facts()
        assert "planner" not in load_state(path, open_store(path))

    def test_resumed_result_survives_pickle(self, rules, db, tmp_path):
        path = str(tmp_path / "store")
        run_chase(db, rules, "restricted", max_steps=5, save=path)
        res = resume_chase(path, max_steps=500)
        assert isinstance(res.instance._store, DurableFactStore)
        clone = pickle.loads(pickle.dumps(res))
        # The copy lands on the in-memory backend with identical facts.
        assert type(clone.instance._store) is FactStore
        assert clone.instance.facts() == res.instance.facts()


# -- CLI --------------------------------------------------------------------


def _store_bytes(store):
    """The bytes of a store's manifest and chase header (a plain store
    has no header)."""
    return {
        name: (store / name).read_bytes()
        for name in ("MANIFEST.json", "chase.pkl")
        if (store / name).exists()
    }


@pytest.fixture
def cli_rules_file(tmp_path):
    path = tmp_path / "rules.tgd"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def cli_db_file(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text(DATABASE + "\n")
    return str(path)


class TestStorageCLI:
    def test_save_inspect_resume_query_flow(
        self, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        # Stop mid-run: exit code 1 (step_budget), resumable hint.
        code = main([
            "chase", cli_rules_file, cli_db_file, "--variant", "r",
            "--max-steps", "5", "--save", store,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "resumable" in captured.err

        assert main(["inspect", store]) == 0
        out = capsys.readouterr().out
        assert "stopped" in out and "resumable" in out

        # Resume to fixpoint: exit 0.
        assert main(["chase", "--resume", store]) == 0
        assert "fixpoint" in capsys.readouterr().out

        assert main(["inspect", store]) == 0
        assert "terminated" in capsys.readouterr().out

        # Certain answers over the store, no re-chase...
        query = "person(X)"
        assert main([
            "query", query, "--db", store, "--certain",
        ]) == 0
        db_out = capsys.readouterr().out
        # ...match the re-chasing query path exactly.
        assert main([
            "query", cli_rules_file, cli_db_file, query, "--variant", "r",
            "--certain",
        ]) == 0
        chase_out = capsys.readouterr().out
        db_answers = {
            line for line in db_out.splitlines()
            if line and not line.startswith("%")
        }
        chase_answers = {
            line for line in chase_out.splitlines()
            if line and not line.startswith("%")
        }
        assert db_answers == chase_answers and db_answers

    def test_resume_refuses_save_flag(self, tmp_path, capsys):
        assert main([
            "chase", "--resume", str(tmp_path / "s"), "--save",
            str(tmp_path / "t"),
        ]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--variant", "o"], ["--kernel", "vector"], ["--overwrite"],
    ])
    def test_resume_refuses_fresh_run_flags(
        self, flags, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main([
            "chase", cli_rules_file, cli_db_file, "--variant", "so",
            "--max-steps", "5", "--save", str(store),
        ]) == 1
        capsys.readouterr()
        saved = [(store / name).read_bytes()
                 for name in ("MANIFEST.json", "chase.pkl")]
        assert main([
            "chase", "--resume", str(store), *flags, "--max-steps", "6",
        ]) == 2
        assert (f"error: --resume continues its own store; {flags[0]}"
                in capsys.readouterr().err)
        assert [(store / name).read_bytes()
                for name in ("MANIFEST.json", "chase.pkl")] == saved

    def test_resume_refuses_a_database(
        self, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        # The store holds its database; another one would be ignored.
        store = tmp_path / "store"
        assert main([
            "chase", cli_rules_file, cli_db_file, "--max-steps", "5",
            "--save", str(store),
        ]) == 1
        capsys.readouterr()
        other = tmp_path / "other.facts"
        other.write_text("e(x, y)\n")
        saved = [(store / name).read_bytes()
                 for name in ("MANIFEST.json", "chase.pkl")]
        assert main([
            "chase", cli_rules_file, str(other), "--resume", str(store),
            "--max-steps", "6",
        ]) == 2
        assert ("error: --resume continues its own store; DB"
                in capsys.readouterr().err)
        assert [(store / name).read_bytes()
                for name in ("MANIFEST.json", "chase.pkl")] == saved

    @pytest.mark.parametrize("flags", [
        ["--variant", "o"], ["--max-steps", "1"],
    ])
    def test_query_db_refuses_chase_flags(
        self, flags, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        # --db answers over what the store holds; a chase setting
        # would be silently ignored.
        store = tmp_path / "store"
        assert main([
            "chase", cli_rules_file, cli_db_file, "--save", str(store),
        ]) == 0
        capsys.readouterr()
        saved = _store_bytes(store)
        assert main(["query", "person(X)", "--db", str(store), *flags]) == 2
        captured = capsys.readouterr()
        assert (f"error: --db answers over its saved store; {flags[0]}"
                in captured.err)
        assert captured.out == ""
        assert _store_bytes(store) == saved

    @pytest.mark.parametrize("plain,flags", [
        (False, ["--variant", "o"]),
        (False, ["--save", "other", "--overwrite"]),
        (False, ["--overwrite"]),
        (True, ["--variant", "so"]),
        (True, ["--max-steps", "3"]),
    ])
    def test_serve_db_refuses_fresh_run_flags(
        self, plain, flags, cli_rules_file, cli_db_file, tmp_path,
        capsys, monkeypatch,
    ):
        from repro.serve import ChaseServer

        served = []
        monkeypatch.setattr(ChaseServer, "run", lambda s: served.append(s))
        store = tmp_path / "store"
        if plain:
            run_chase(parse_database(DATABASE), parse_program(PROGRAM),
                      "restricted").instance.save(str(store))
        else:
            assert main([
                "chase", cli_rules_file, cli_db_file, "--save", str(store),
            ]) == 0
        capsys.readouterr()
        saved = _store_bytes(store)
        flags = [str(tmp_path / f) if f == "other" else f for f in flags]
        assert main([
            "serve", "--db", str(store), "--port", "0", *flags,
        ]) == 2
        assert (f"error: --db serves its saved store; {flags[0]}"
                in capsys.readouterr().err)
        assert not served and not (tmp_path / "other").exists()
        assert _store_bytes(store) == saved

    def test_serve_db_takes_max_steps_for_a_chase_store(
        self, cli_rules_file, cli_db_file, tmp_path, capsys, monkeypatch
    ):
        # A checkpointed store's step cap is the resumed session's.
        from repro.serve import ChaseServer

        served = []
        monkeypatch.setattr(ChaseServer, "run", lambda s: served.append(s))
        store = tmp_path / "store"
        assert main([
            "chase", cli_rules_file, cli_db_file, "--save", str(store),
        ]) == 0
        assert main([
            "serve", "--db", str(store), "--port", "0", "--max-steps", "50",
        ]) == 0
        assert len(served) == 1
        capsys.readouterr()

    def test_no_save_without_resume_is_a_usage_error(
        self, cli_rules_file, cli_db_file, capsys
    ):
        assert main(["chase", cli_rules_file, cli_db_file, "--no-save"]) == 2
        captured = capsys.readouterr()
        assert "error: --no-save only applies with --resume" in captured.err
        assert captured.out == ""

    def test_checkpoint_cadence_flag_is_a_usage_error(
        self, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        # Every round boundary checkpoints; there is no cadence to set.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main([
                "chase", cli_rules_file, cli_db_file, "--save", str(store),
                "--checkpoint-every", "2",
            ])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --checkpoint-every"
                in capsys.readouterr().err)
        assert not store.exists()

    def test_chase_requires_rules_without_resume(self, capsys):
        assert main(["chase"]) == 2
        capsys.readouterr()

    def test_query_db_on_plain_save(
        self, cli_rules_file, cli_db_file, tmp_path, capsys
    ):
        rules = parse_program(PROGRAM)
        db = parse_database(DATABASE)
        result = run_chase(db, rules, "restricted", max_steps=500)
        store = str(tmp_path / "plain")
        result.instance.save(store)
        assert main(["query", "person(X)", "--db", store]) == 0
        out = capsys.readouterr().out
        assert "% store" in out
