"""The start-up rule: ``import repro.cli`` loads what the default
``check``, ``query`` and ``chase`` paths run, and nothing else.

Opt-in layers (NumPy batch kernels, durable stores, checkpoints, the
ingest journal, process pools, ``entail``, ``serve``) load where they
are first used, and the default commands must find everything they
run already imported, so that no command pays for an import.  Each
check runs in a fresh interpreter: this process has long since
imported the whole package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

NOT_AT_START_UP = (
    "numpy",
    "multiprocessing",
    "socket",
    "pickle",
    "mmap",
    "asyncio",
    "repro.serve",
    "repro.storage.durable",
    "repro.storage.journal",
    "repro.chase.checkpoint",
    "repro.chase.incremental",
    "repro.entailment",
)

#: One rule set per decider (simple linear, linear, guarded) and a
#: terminating guarded program with joins for ``chase`` and ``query``.
PROGRAMS = {
    "sl.tgd": "person(X) -> exists Y . father(X, Y), person(Y)\n",
    "linear.tgd": "r(X, X, Y) -> exists Z . r(Y, Z, Z)\n",
    "guarded.tgd": "r(X, Y), s(Y) -> exists Z . r(Y, Z), s(Z)\n",
    "chase.tgd": (
        "e(X, Y) -> exists Z . f(Y, Z)\n"
        "f(X, Y), e(Y, X) -> g(X)\n"
        "g(X) -> h(X, X)\n"
    ),
    "db.facts": "e(a, b)\ne(b, c)\ne(c, a)\nf(b, a)\nf(c, b)\n",
}
QUERY = "q(X, Z) :- e(X, Y), f(Y, Z)"
#: A cyclic query: ``auto`` runs the leapfrog engine on it.
TRIANGLE = "q(X) :- e(X, Y), e(Y, Z), e(Z, X)"

_COMMANDS_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, os, sys

    d = sys.argv[1]
    import repro.cli as cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return [code, out.getvalue()]

    report = {"start_up": sorted(sys.modules)}
    rules, db = os.path.join(d, "chase.tgd"), os.path.join(d, "db.facts")
    report["runs"] = [
        run("check", os.path.join(d, name))
        for name in ("sl.tgd", "linear.tgd", "guarded.tgd")
    ] + [
        run("chase", rules, db),
        run("query", rules, db, sys.argv[2]),
        run("query", rules, db, sys.argv[2], "--certain"),
    ]
    report["after_defaults"] = sorted(sys.modules)
    report["auto"] = [
        run("query", rules, db, query, "--kernel", kernel)
        for query in sys.argv[2:4] for kernel in ("tuple", "auto")
    ]
    report["after_auto"] = sorted(sys.modules)
    report["vector"] = run("query", rules, db, sys.argv[2],
                           "--kernel", "vector")
    report["after_vector"] = sorted(sys.modules)
    from repro.query import numpy_active
    report["numpy_active"] = numpy_active()
    print(json.dumps(report))
""")


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    for name, text in PROGRAMS.items():
        (inputs / name).write_text(text)
    return json.loads(
        _python(_COMMANDS_SCRIPT, str(inputs), QUERY, TRIANGLE)
    )


def test_import_cli_skips_opt_in_layers(report):
    loaded = set(report["start_up"])
    assert "repro.cli" in loaded
    assert not loaded & set(NOT_AT_START_UP)
    assert not {m for m in loaded if m.startswith("repro.serve.")}


def test_default_commands_import_nothing_more(report):
    codes = [code for code, _ in report["runs"]]
    # sl and guarded do not terminate (exit 1), linear does (exit 0).
    assert codes == [1, 0, 1, 0, 0, 0]
    added = set(report["after_defaults"]) - set(report["start_up"])
    assert not {m for m in added if m.split(".")[0] in ("repro", "numpy")}


def test_auto_kernel_loads_no_numpy_on_small_or_cyclic_queries(report):
    small, small_auto, cyclic, cyclic_auto = report["auto"]
    # On a small acyclic query auto picks the tuple loop itself.
    assert small_auto == small
    # On a cyclic one it picks the leapfrog engine, which emits
    # answers in its own (sorted) order.
    assert cyclic_auto[0] == cyclic[0]
    assert sorted(cyclic_auto[1].splitlines()) == sorted(
        cyclic[1].splitlines()
    )
    assert "% 3 answers" in cyclic[1]
    assert "numpy" not in report["after_auto"]


def test_vector_kernel_loads_numpy_and_agrees(report):
    tuple_code, tuple_out = report["runs"][4]
    assert report["vector"] == [tuple_code, tuple_out]
    assert "% 3 answers" in tuple_out
    # NumPy's state is read in the child: a parent that blocks NumPy
    # does not block it there.
    assert ("numpy" in report["after_vector"]) == report["numpy_active"]


_NO_NUMPY_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys

    sys.modules["numpy"] = None  # "import numpy" now raises ImportError
    import repro.cli as cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return [code, out.getvalue()]

    rules, db, query = sys.argv[1:4]
    print(json.dumps({
        kernel: [run("query", rules, db, query, "--kernel", kernel),
                 run("chase", rules, db, "--kernel", kernel)]
        for kernel in ("tuple", "vector", "auto")
    }))
""")


def test_without_numpy_every_kernel_prints_the_tuple_output(tmp_path):
    """In a child where ``import numpy`` fails, ``--kernel vector`` and
    ``--kernel auto`` run the tuple loop, so their stdout equals
    ``--kernel tuple``'s.  The 1,100-edge database makes ``auto`` ask
    for the batch engine too: its first discovery round hands 1,100
    pivot rows to one (rule, pivot) batch, and the query's two
    relations hold 2,200 rows."""
    rules = tmp_path / "chase.tgd"
    rules.write_text(PROGRAMS["chase.tgd"])
    db = tmp_path / "db.facts"
    db.write_text("".join(f"e(a{i}, a{i + 1})\n" for i in range(1100)))
    report = json.loads(
        _python(_NO_NUMPY_SCRIPT, str(rules), str(db), QUERY)
    )
    query, chase = report["tuple"]
    assert query[0] == chase[0] == 0
    assert "% 1100 answers" in query[1]
    assert report["vector"] == report["auto"] == report["tuple"]


@pytest.mark.parametrize(
    "package", ["repro", "repro.chase", "repro.storage", "repro.termination"]
)
def test_lazy_package_exports_resolve(package):
    """Every public name resolves from a fresh interpreter, through
    ``from package import *`` and attribute access alike, and
    ``dir()`` still lists it."""
    out = _python(textwrap.dedent(f"""
        import importlib, json
        namespace = {{}}
        exec("from {package} import *", namespace)
        module = importlib.import_module("{package}")
        missing = [n for n in module.__all__ if n not in namespace]
        missing += [n for n in module.__all__ if n not in dir(module)]
        print(json.dumps([missing, len(module.__all__)]))
    """))
    missing, count = json.loads(out)
    assert missing == [] and count > 0


def test_every_package_all_resolves():
    out = _python(textwrap.dedent("""
        import importlib, json, pkgutil
        import repro
        bad = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.ispkg:
                continue
            module = importlib.import_module(info.name)
            bad += [f"{info.name}.{n}" for n in module.__all__
                    if not hasattr(module, n)]
        print(json.dumps(bad))
    """))
    assert json.loads(out) == []


def test_submodules_are_attributes_and_misses_raise():
    out = _python(textwrap.dedent("""
        import repro
        assert repro.chase.engine.run_chase is repro.run_chase
        for owner in (repro, repro.chase):
            try:
                owner.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError(owner)
        print("ok")
    """))
    assert out.strip() == "ok"
