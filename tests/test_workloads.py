"""Tests for workload generators and parametric families."""

import os
import subprocess
import sys

import pytest

from repro.classes import (
    is_guarded,
    is_linear,
    is_simple_linear,
)
from repro.model import validate_program
from repro.termination import decide_termination
from repro.workloads import (
    chain_family,
    cycle_family,
    diagonal_family,
    dl_lite_cyclic_family,
    dl_lite_family,
    guarded_loop_family,
    guarded_tower_family,
    random_database,
    random_guarded,
    random_linear,
    random_simple_linear,
    shifting_family,
)


class TestGenerators:
    def test_sl_generator_produces_sl(self):
        for seed in range(5):
            rules = random_simple_linear(5, seed=seed)
            assert is_simple_linear(rules)
            validate_program(rules)

    def test_linear_generator_produces_linear(self):
        for seed in range(5):
            rules = random_linear(5, seed=seed)
            assert is_linear(rules)

    def test_guarded_generator_produces_guarded(self):
        for seed in range(5):
            rules = random_guarded(4, seed=seed)
            assert is_guarded(rules)

    def test_determinism(self):
        assert random_simple_linear(5, seed=3) == random_simple_linear(
            5, seed=3
        )
        assert random_linear(5, seed=3) == random_linear(5, seed=3)
        assert random_guarded(5, seed=3) == random_guarded(5, seed=3)

    def test_same_output_under_any_hash_seed(self):
        # String hashing is salted per process, so a generator seeded
        # from hash() would sample different rules in every run.
        script = (
            "from repro.workloads import random_database, random_guarded, "
            "random_linear, random_simple_linear\n"
            "for rules in (random_simple_linear(6, seed=0, constant_prob=0.3),"
            " random_linear(8, 5, 3, seed=0), random_guarded(5, seed=0)):\n"
            "    print([str(r) for r in rules])\n"
            "    print([str(a) for a in random_database(rules, seed=0)])\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1

    def test_seeds_vary_output(self):
        outputs = {
            tuple(random_simple_linear(5, seed=s)) for s in range(8)
        }
        assert len(outputs) > 1

    def test_rule_count_respected(self):
        assert len(random_simple_linear(7, seed=0)) == 7
        assert len(random_guarded(3, seed=0)) == 3

    def test_random_database_over_schema(self):
        rules = random_simple_linear(4, seed=1)
        db = random_database(rules, num_constants=3, seed=1)
        assert db.is_database()
        schema_names = {p.name for p in db.predicates()}
        from repro.model import program_predicates

        assert schema_names <= {p.name for p in program_predicates(rules)}


class TestFamilies:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_chain_terminates(self, n):
        rules = chain_family(n)
        assert is_simple_linear(rules)
        verdict = decide_termination(rules, variant="oblivious")
        assert verdict.terminating

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_cycle_diverges(self, n):
        rules = cycle_family(n)
        for variant in ("oblivious", "semi_oblivious"):
            assert not decide_termination(rules, variant=variant).terminating

    @pytest.mark.parametrize("k", [2, 3])
    def test_shifting_diverges(self, k):
        rules = shifting_family(k)
        assert not decide_termination(
            rules, variant="semi_oblivious"
        ).terminating

    def test_shifting_arity_one_separates_variants(self):
        # p(X) -> exists Z . p(Z): the frontier is empty, so the
        # semi-oblivious chase fires once; the oblivious chase keys on
        # X and diverges.
        rules = shifting_family(1)
        assert not decide_termination(rules, variant="oblivious").terminating
        assert decide_termination(
            rules, variant="semi_oblivious"
        ).terminating

    @pytest.mark.parametrize("k", [2, 3])
    def test_diagonal_terminates_but_not_wa(self, k):
        from repro.graphs import is_weakly_acyclic

        rules = diagonal_family(k)
        assert not is_weakly_acyclic(rules)
        assert decide_termination(rules, variant="oblivious").terminating

    @pytest.mark.parametrize("levels", [1, 2, 4])
    def test_guarded_tower_terminates(self, levels):
        rules = guarded_tower_family(levels)
        assert is_guarded(rules) and not is_linear(rules)
        assert decide_termination(rules, variant="oblivious").terminating

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_guarded_loop_diverges(self, levels):
        rules = guarded_loop_family(levels)
        assert not decide_termination(
            rules, variant="semi_oblivious"
        ).terminating

    @pytest.mark.parametrize("n", [2, 4])
    def test_dl_lite_family(self, n):
        rules = dl_lite_family(n)
        assert is_simple_linear(rules)
        assert decide_termination(rules, variant="oblivious").terminating

    @pytest.mark.parametrize("n", [2, 4])
    def test_dl_lite_cyclic_diverges(self, n):
        rules = dl_lite_cyclic_family(n)
        assert not decide_termination(
            rules, variant="semi_oblivious"
        ).terminating

    def test_family_bounds_validated(self):
        with pytest.raises(ValueError):
            chain_family(0)
        with pytest.raises(ValueError):
            shifting_family(0)
        with pytest.raises(ValueError):
            diagonal_family(1)
        with pytest.raises(ValueError):
            guarded_tower_family(0)
        with pytest.raises(ValueError):
            dl_lite_family(1)
