"""Tests for termination reports and chase provenance."""

from repro.chase import ChaseVariant, run_chase
from repro.cli import main
from repro.parser import parse_database, parse_program
from repro.termination import termination_report


class TestTerminationReport:
    def test_terminating_sl_program(self):
        rules = parse_program("p(X) -> exists Z . q(X, Z)")
        report = termination_report(rules)
        assert report.narrowest == "simple_linear"
        assert report.conditions["weak_acyclicity"] is True
        assert report.conditions["mfa"] is True
        assert report.oblivious.terminating
        assert report.semi_oblivious.terminating

    def test_diverging_program(self):
        rules = parse_program("p(X, Y) -> exists Z . p(Y, Z)")
        report = termination_report(rules)
        assert not report.oblivious.terminating
        assert not report.semi_oblivious.terminating
        assert report.conditions["joint_acyclicity"] is False

    def test_separation_program(self):
        rules = parse_program("p(X, X) -> exists Z . p(X, Z)")
        report = termination_report(rules)
        assert report.conditions["weak_acyclicity"] is False
        assert report.conditions["joint_acyclicity"] is True
        assert report.oblivious.terminating

    def test_unguarded_program_has_no_exact_verdicts(self):
        rules = parse_program("p(X, Y), q(Y, Z) -> exists W . r(X, W)")
        report = termination_report(rules)
        assert report.oblivious is None
        assert report.semi_oblivious is None
        # zoo conditions still computed
        assert report.conditions["weak_acyclicity"] is True

    def test_render_mentions_everything(self):
        rules = parse_program("p(X) -> exists Z . q(X, Z)")
        text = termination_report(rules).render()
        assert "narrowest class: simple_linear" in text
        assert "weak_acyclicity: yes" in text
        assert "oblivious: terminates" in text

    def test_render_undecided(self):
        rules = parse_program("p(X, Y), q(Y, Z) -> exists W . r(X, W)")
        text = termination_report(rules).render()
        assert "undecided" in text

    def test_cli_full_flag(self, tmp_path, capsys):
        path = tmp_path / "rules.tgd"
        path.write_text("p(X) -> exists Z . q(X, Z)\n")
        assert main(["check", str(path), "--full"]) == 0
        out = capsys.readouterr().out
        assert "sufficient conditions" in out
        assert "mfa: yes" in out

    def test_cli_full_flag_undecided_exit_code(self, tmp_path, capsys):
        path = tmp_path / "rules.tgd"
        path.write_text("p(X, Y), q(Y, Z) -> exists W . r(X, W)\n")
        assert main(["check", str(path), "--full"]) == 2


class TestProvenance:
    RULES = parse_program(
        "p(X) -> exists Z . q(X, Z)\nq(X, Y) -> r(X)"
    )

    def test_database_facts_have_no_provenance(self):
        db = parse_database("p(a)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        assert result.provenance(next(iter(db))) is None

    def test_derived_facts_point_to_their_step(self):
        db = parse_database("p(a)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        r_fact = next(
            f for f in result.instance if f.predicate.name == "r"
        )
        step = result.provenance(r_fact)
        assert step is not None
        assert step.trigger.rule.label == "r2"

    def test_facts_by_rule(self):
        db = parse_database("p(a)\np(b)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        contributions = result.facts_by_rule()
        assert contributions == {"r1": 2, "r2": 2}

    def test_map_agrees_with_linear_scan_for_every_fact(self):
        # The lazily built fact→step map must answer exactly like the
        # old O(steps) scan, for derived and database facts alike.
        db = parse_database("p(a)\np(b)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)

        def scan(fact):
            for step in result.steps:
                if fact in step.new_facts:
                    return step
            return None

        for fact in result.instance:
            assert result.provenance(fact) is scan(fact)

    def test_repeated_lookups_share_the_built_map(self):
        db = parse_database("p(a)")
        result = run_chase(db, self.RULES, ChaseVariant.SEMI_OBLIVIOUS)
        fact = next(
            f for f in result.instance if f.predicate.name == "r"
        )
        first = result.provenance(fact)
        assert result.provenance(fact) is first
        # The map is built once: further lookups do not rebuild it.
        assert result._provenance_built == len(result.steps)
