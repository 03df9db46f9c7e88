"""Tests for the command-line interface."""

import argparse
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import COMMANDS, EXIT_CODES, build_parser, main
from repro.parser.printer import program_to_text
from repro.runtime import STOP_REASONS
from repro.workloads.families import guarded_tower_family

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
CLI_DOC = os.path.join(os.path.dirname(SRC), "docs", "CLI.md")


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.tgd"
    path.write_text(
        "person(X) -> exists Y . hasFather(X, Y), person(Y)\n"
    )
    return str(path)


@pytest.fixture
def terminating_rules_file(tmp_path):
    path = tmp_path / "ok.tgd"
    path.write_text("emp(X) -> exists D . dept(X, D)\n")
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text("person(bob)\n")
    return str(path)


class TestClassify:
    def test_reports_class(self, rules_file, capsys):
        assert main(["classify", rules_file]) == 0
        out = capsys.readouterr().out
        assert "narrowest class: simple_linear" in out
        assert "guarded: yes" in out


class TestCheck:
    def test_diverging_exit_code_1(self, rules_file, capsys):
        assert main(["check", rules_file, "--variant", "so"]) == 1
        out = capsys.readouterr().out
        assert "infinite" in out

    def test_terminating_exit_code_0(self, terminating_rules_file, capsys):
        assert main(["check", terminating_rules_file]) == 0
        out = capsys.readouterr().out
        assert "terminates" in out

    def test_oblivious_variant(self, terminating_rules_file, capsys):
        assert main(
            ["check", terminating_rules_file, "--variant", "o"]
        ) == 0
        assert "rich_acyclicity" in capsys.readouterr().out

    def test_standard_flag(self, terminating_rules_file):
        assert main(
            ["check", terminating_rules_file, "--standard",
             "--variant", "so"]
        ) == 0


class TestCheckLinearBudget:
    """The linear (Theorem 2) decider honours every budget flag."""

    @pytest.fixture
    def chain_file(self, tmp_path):
        # The repeated body variable keeps the chain linear rather
        # than simple-linear, so check takes the Theorem 2 path.
        rules = ["q(X, X) -> p1(X, X)"] + [
            f"p{i}(X, Y) -> exists Z . p{i + 1}(Y, Z)" for i in range(1, 21)
        ]
        path = tmp_path / "chain.tgd"
        path.write_text("\n".join(rules) + "\n")
        return str(path)

    @pytest.mark.parametrize("flags,code,status", [
        (["--timeout", "0.05"], 4, "deadline exceeded"),
        (["--max-rounds", "1"], 1, "budget exhausted"),
        (["--max-memory-mb", "1"], 5, "memory ceiling exceeded"),
    ])
    def test_budget_flag_stops_the_decider(
        self, chain_file, flags, code, status, capsys
    ):
        assert main(["check", chain_file, *flags]) == code
        assert capsys.readouterr().err.startswith(f"% {status}:")


class TestCheckFull:
    """``check --full`` honours the same flags as ``check``: one budget
    governs the whole report."""

    @pytest.fixture
    def tower_file(self, tmp_path):
        path = tmp_path / "tower.tgd"
        path.write_text(program_to_text(guarded_tower_family(3)))
        return str(path)

    def test_nan_timeout_is_a_usage_error(self, rules_file, capsys):
        assert main(["check", rules_file, "--timeout", "nan"]) == 2
        assert main(
            ["check", rules_file, "--full", "--timeout", "nan"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("error: timeout_s must be positive") == 2

    def test_max_rounds_stops_the_report(self, tower_file, capsys):
        assert main(["check", tower_file, "--max-rounds", "1"]) == 1
        plain = capsys.readouterr()
        assert plain.err.startswith("% budget exhausted")
        assert main(
            ["check", tower_file, "--full", "--max-rounds", "1"]
        ) == 1
        full = capsys.readouterr()
        assert full.out == ""
        assert full.err.startswith("% budget exhausted")

    def test_allow_oracle_decides_unguarded_rules(self, tmp_path, capsys):
        path = tmp_path / "join.tgd"
        path.write_text("e(X, Y), f(Y, Z) -> exists W . g(X, W)\n")
        assert main(["check", str(path), "--allow-oracle"]) == 0
        capsys.readouterr()
        assert main(["check", str(path), "--full", "--allow-oracle"]) == 0
        out = capsys.readouterr().out
        assert "undecided" not in out
        assert (
            "semi_oblivious: terminates on every database "
            "[critical_chase_oracle]" in out
        )


class TestChase:
    def test_budgeted_run(self, rules_file, db_file, capsys):
        code = main(
            ["chase", rules_file, db_file, "--variant", "so",
             "--max-steps", "5"]
        )
        assert code == 1  # budget exhausted on the diverging rules
        out = capsys.readouterr().out
        assert "budget exhausted" in out
        assert "person(bob)" in out

    def test_terminating_run(self, terminating_rules_file, tmp_path, capsys):
        db = tmp_path / "emp.facts"
        db.write_text("emp(ada)\n")
        assert main(
            ["chase", terminating_rules_file, str(db), "--variant", "r"]
        ) == 0
        out = capsys.readouterr().out
        assert "fixpoint" in out


class TestQuery:
    @pytest.fixture
    def exchange_rules_file(self, tmp_path):
        path = tmp_path / "exchange.tgd"
        path.write_text(
            "emp(X) -> exists D . works(X, D)\nworks(X, D) -> dept(D)\n"
        )
        return str(path)

    @pytest.fixture
    def emp_db_file(self, tmp_path):
        path = tmp_path / "emp.facts"
        path.write_text("emp(ada)\nemp(bob)\n")
        return str(path)

    def test_naive_answers(self, exchange_rules_file, emp_db_file, capsys):
        assert main(
            ["query", exchange_rules_file, emp_db_file,
             "q(X) :- works(X, D)"]
        ) == 0
        out = capsys.readouterr().out
        assert "q(ada)" in out and "q(bob)" in out
        assert "% 2 answers" in out

    def test_certain_answers_drop_nulls(
        self, exchange_rules_file, emp_db_file, capsys
    ):
        # dept(D) only holds for invented nulls -> no certain answers.
        assert main(
            ["query", exchange_rules_file, emp_db_file,
             "q(D) :- dept(D)", "--certain"]
        ) == 0
        out = capsys.readouterr().out
        assert "% 0 certain answers" in out
        # ...but naive answers exist (one null witness per employee).
        assert main(
            ["query", exchange_rules_file, emp_db_file, "q(D) :- dept(D)"]
        ) == 0
        assert "% 2 answers" in capsys.readouterr().out

    def test_boolean_query(self, exchange_rules_file, emp_db_file, capsys):
        assert main(
            ["query", exchange_rules_file, emp_db_file, "dept(D)"]
        ) == 0
        assert "true" in capsys.readouterr().out
        assert main(
            ["query", exchange_rules_file, emp_db_file, "missing(D)"]
        ) == 0
        assert "false" in capsys.readouterr().out

    def test_budget_exhausted_exit_code(self, rules_file, db_file, capsys):
        assert main(
            ["query", rules_file, db_file,
             "q(X) :- person(X)", "--variant", "so", "--max-steps", "3"]
        ) == 1
        captured = capsys.readouterr()
        assert "budget exhausted" in captured.out

    def test_malformed_query_errors(
        self, exchange_rules_file, emp_db_file, capsys
    ):
        assert main(
            ["query", exchange_rules_file, emp_db_file, "q(a) :- dept(D)"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestCritical:
    def test_prints_critical_instance(self, terminating_rules_file, capsys):
        assert main(["critical", terminating_rules_file]) == 0
        out = capsys.readouterr().out
        assert "emp('*')" in out

    def test_standard_instance(self, terminating_rules_file, capsys):
        assert main(
            ["critical", terminating_rules_file, "--standard"]
        ) == 0
        out = capsys.readouterr().out
        assert "zero(0)" in out


class TestEntail:
    def test_entailed(self, tmp_path, capsys):
        rules = tmp_path / "r.tgd"
        rules.write_text("p(X) -> q(X)\n")
        db = tmp_path / "d.facts"
        db.write_text("p(a)\n")
        assert main(["entail", str(rules), str(db), "q(a)"]) == 0
        assert "entailed" in capsys.readouterr().out

    def test_not_entailed(self, tmp_path, capsys):
        rules = tmp_path / "r.tgd"
        rules.write_text("p(X) -> q(X)\n")
        db = tmp_path / "d.facts"
        db.write_text("p(a)\n")
        assert main(["entail", str(rules), str(db), "q(b)"]) == 1
        assert "not entailed" in capsys.readouterr().out


class TestDot:
    @pytest.mark.parametrize("graph", ["dep", "extdep", "joint", "types"])
    def test_dot_outputs(self, rules_file, graph, capsys):
        assert main(["dot", rules_file, "--graph", graph]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.rstrip().endswith("}")


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/file.tgd"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unguarded_check_error(self, tmp_path, capsys):
        rules = tmp_path / "bad.tgd"
        rules.write_text("p(X, Y), q(Y, Z) -> exists W . r(X, W)\n")
        assert main(["check", str(rules)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--timeout", "--max-memory-mb"])
    def test_nan_budget_limit_is_rejected(
        self, terminating_rules_file, flag, capsys
    ):
        # NaN compares False with everything, so a "<= 0" test lets
        # it through and the limit never trips.
        assert main(["check", terminating_rules_file, flag, "nan"]) == 2
        assert "must be positive, got nan" in capsys.readouterr().err

    def test_serve_rejects_bad_request_timeout(
        self, terminating_rules_file, db_file, monkeypatch, capsys
    ):
        import repro.serve

        class NoServer:
            """Stands in for the HTTP server, which must not start."""

            def __init__(self, *args, **kwargs):
                pass

            def run(self):
                pass

        monkeypatch.setattr(repro.serve, "ChaseServer", NoServer)
        argv = ["serve", terminating_rules_file, db_file,
                "--request-timeout", "-1"]
        assert main(argv) == 2
        assert ("error: request_timeout_s must be positive"
                in capsys.readouterr().err)


class TestSerialOnly:
    """Rounds run on one serial path and each join in one order: the
    executor and join-order flags, the worker fault directives and the
    degraded-executor stop reason are gone."""

    @pytest.mark.parametrize("command", ["check", "chase", "query", "serve"])
    @pytest.mark.parametrize("flag,value", [("--workers", "2"),
                                            ("--planner", "cost")])
    def test_removed_flag_is_a_usage_error(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "rules.tgd", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_worker_crash_directive_is_unknown(
        self, rules_file, db_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1")
        argv = ["chase", rules_file, db_file, "--max-memory-mb", "512"]
        assert main(argv) == 2
        assert ("error: unknown REPRO_FAULTS directive 'crash:1'"
                in capsys.readouterr().err)

    def test_no_executor_degraded_stop_reason(self):
        assert "executor_degraded" not in STOP_REASONS
        assert "executor_degraded" not in EXIT_CODES


@pytest.fixture
def argparse_calls(monkeypatch):
    """Count the argparse parsers built and record every
    ``add_argument`` call's arguments."""
    calls = {"parsers": 0, "arguments": []}
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        calls["parsers"] += 1
        init(self, *args, **kwargs)

    def recording_add_argument(self, *args, **kwargs):
        calls["arguments"].append((args, kwargs))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_argument", recording_add_argument
    )
    return calls


def _outcome(parse, argv, capsys):
    """Exit status, stdout, stderr and parsed arguments of one parse."""
    try:
        parsed, status = vars(parse(argv)), None
    except SystemExit as exc:
        parsed, status = None, exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err, parsed


#: Placeholder positionals that satisfy each command's parser.
POSITIONALS = {
    "classify": ["r.tgd"],
    "check": ["r.tgd"],
    "chase": [],
    "query": ["q(X) :- p(X)"],
    "inspect": ["DIR"],
    "critical": ["r.tgd"],
    "entail": ["r.tgd", "db.facts", "p(a)"],
    "dot": ["r.tgd"],
    "serve": [],
}


class TestPerCommandParser:
    """``main`` builds only the invoked command's subparser, and the
    user sees exactly what the full parser prints."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps help and usage to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv", [[], ["-h"], ["--help"], ["chek", "r.tgd"], ["nope"]]
    )
    def test_top_level_matches_full_parser(self, argv, capsys):
        full = _outcome(build_parser().parse_args, argv, capsys)
        assert _outcome(main, argv, capsys) == full
        assert full[0] in (0, 2)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_matches_full_parser(self, command, capsys):
        given = POSITIONALS[command]
        for argv in (
            [command, "-h"],
            [command],
            [command, *given, "--variant", "bogus"],
            [command, *given, "--no-such-flag"],
            [command, *given],
        ):
            lazy = _outcome(build_parser(command).parse_args, argv, capsys)
            full = _outcome(build_parser().parse_args, argv, capsys)
            assert lazy == full, argv

    def test_check_builds_only_its_parser(
        self, terminating_rules_file, argparse_calls, capsys
    ):
        assert main(["check", terminating_rules_file]) == 0
        # The top level and ``check``; all nine commands are 10 and 64.
        assert argparse_calls["parsers"] == 2
        assert len(argparse_calls["arguments"]) == 10

    def test_python_m_repro_reads_sys_argv(self, capsys):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        status, out, err, _ = _outcome(
            build_parser().parse_args, ["check", "--help"], capsys
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            status, out, err
        )
        assert out.startswith("usage: repro check")

    def test_cli_doc_names_every_option(self, argparse_calls):
        build_parser()
        with open(CLI_DOC, encoding="utf-8") as handle:
            doc = handle.read()
        options = {
            string
            for args, kwargs in argparse_calls["arguments"]
            if kwargs.get("action") != "help"
            for string in args
            if string.startswith("-")
        }
        undocumented = sorted(
            option for option in options
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                             doc)
        )
        assert "--variant" in options
        assert undocumented == []

    def test_every_documented_option_exists(self, argparse_calls):
        # The reverse direction: a flag the parsers no longer accept
        # must not stay documented.
        build_parser()
        with open(CLI_DOC, encoding="utf-8") as handle:
            doc = handle.read()
        options = {
            string
            for args, _ in argparse_calls["arguments"]
            for string in args
            if string.startswith("-")
        }
        documented = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", doc))
        assert "--variant" in documented
        assert sorted(documented - options) == []

    def test_documented_flag_values_are_the_choices(self, argparse_calls):
        # Every ``--flag a|b|...`` in CLI.md (pipes escaped inside
        # table cells) names only values the flag accepts, and every
        # accepted value is documented for it somewhere.
        build_parser()
        with open(CLI_DOC, encoding="utf-8") as handle:
            doc = handle.read()
        choices = {}
        for args, kwargs in argparse_calls["arguments"]:
            if kwargs.get("choices") is not None:
                for string in args:
                    choices.setdefault(string, set()).update(
                        kwargs["choices"]
                    )
        documented = {}
        for flag, values in re.findall(
            r"(?<![\w-])(--[a-z][\w-]*) (\w+(?:\\?\|\w+)+)", doc
        ):
            documented.setdefault(flag, set()).update(
                re.split(r"\\?\|", values)
            )
        assert {"--variant", "--kernel", "--graph"} <= set(documented)
        for flag, values in sorted(documented.items()):
            assert values <= choices.get(flag, set()), flag
        for flag, values in sorted(choices.items()):
            assert values <= documented.get(flag, set()), flag
