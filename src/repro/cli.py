"""Command-line interface.

``python -m repro <command> ...`` runs one of :data:`COMMANDS`.  The
flag-by-flag reference, with every file format and the consolidated
stop-reason/exit-code table, is ``docs/CLI.md`` (the only synopsis);
``repro <command> --help`` prints one command's flags.

Rule files use the library syntax (``p(X) -> exists Z . q(X, Z)``);
database files hold one ground atom per line.  ``query`` chases the
database to a (universal, when the chase terminates) model — the same
instance, null numbering included, that ``chase`` prints — and
evaluates a conjunctive query over it through the cost-based planner
(:mod:`repro.query`): naive answers by default, null-free certain
answers with ``--certain``.

``--timeout``, ``--max-memory-mb``, and ``--max-rounds`` govern the
run through a :class:`repro.runtime.budget.Budget`; a tripped limit
stops the run between trigger applications, prints what was computed,
and exits with the stop reason's code (see :data:`EXIT_CODES`).
Ctrl-C is cooperative cancellation: the governed commands catch
SIGINT, finish the current step, and report a round-consistent partial
result with exit code 6 instead of a traceback.

``chase --save DIR`` checkpoints the run into a durable fact store
(:mod:`repro.storage`) at every round boundary and at the stop.  Any
non-zero stop — ``step_budget`` (1), ``deadline`` (4), ``memory`` (5),
``cancelled`` (6) — leaves a resumable store: ``chase --resume DIR``
continues from exactly where the run stopped (raise ``--max-steps`` /
the budget flags to make progress) and produces a byte-identical
result to the uninterrupted run.  A store whose run reached
``fixpoint`` (0) resumes to an immediate no-op.  ``query --db DIR``
answers over a saved store without re-chasing, and ``inspect DIR``
summarizes one from its manifest alone (no row data is read).

``serve`` chases once, keeps the instance resident, and answers
queries, certain answers, and entailment over HTTP while ``POST
/facts`` ingests new base facts with **incremental maintenance** — the
chase resumes from the delta (:mod:`repro.chase.incremental`) instead
of re-running.  With ``--db DIR`` it serves a checkpointed store
(extendable; ingest legs keep checkpointing into the directory) or a
plain saved store (read-only).  Durable residents journal every
ingest delta (``ingest.wal``, fsync before the chase) so a crashed
server replays unacknowledged ingests at the next start and a retried
``ingest_id`` is applied at most once; ``--max-inflight`` /
``--max-ingest-queue`` bound load, shedding the excess with 429/503 +
``Retry-After``.  See :mod:`repro.serve`.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from typing import Optional, Sequence

from .chase import (
    ChaseVariant,
    critical_instance,
    resume_chase,
    run_chase,
    standard_critical_instance,
)
from .classes import classify, narrowest_class
from .errors import BudgetExceededError, ReproError
from .parser import (
    atom_to_text,  # noqa: F401  perfbench/spans.py wraps it by this name
    instance_to_text,
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
)
from .query.kernels import KERNELS
from .runtime import Budget
from .termination import decide_termination

# Start-up: this module imports what the default check, query and
# chase paths run; opt-in flags and other subcommands import their
# layers where they use them (tests/test_import_budget.py).  These two
# are otherwise first imported inside parse_query() and Instance(),
# which would bill the import to the first command.
from .cq import ConjunctiveQuery  # noqa: F401
from .storage import MemoryFactStore  # noqa: F401

#: Exit code per stop reason (2 stays the usage/input-error code; 3 is
#: the fallback for budget stops without a structured reason, e.g. the
#: guarded decider's type-space cap reported before PR 6).
EXIT_CODES = {
    "fixpoint": 0,
    "step_budget": 1,
    "deadline": 4,
    "memory": 5,
    "cancelled": 6,
}
_BUDGET_EXIT_FALLBACK = 3

#: Human-readable status per stop reason (the chase/query summary line).
_STATUS = {
    "fixpoint": "fixpoint",
    "step_budget": "budget exhausted",
    "deadline": "deadline exceeded",
    "memory": "memory ceiling exceeded",
    "cancelled": "cancelled",
}

_VARIANTS = {
    "o": ChaseVariant.OBLIVIOUS,
    "oblivious": ChaseVariant.OBLIVIOUS,
    "so": ChaseVariant.SEMI_OBLIVIOUS,
    "semi_oblivious": ChaseVariant.SEMI_OBLIVIOUS,
    "r": ChaseVariant.RESTRICTED,
    "restricted": ChaseVariant.RESTRICTED,
}


def _load_rules(path: str):
    with open(path) as handle:
        return parse_program(handle.read())


def _load_database(path: str):
    with open(path) as handle:
        return parse_database(handle.read())


def _budget_from(args) -> Budget:
    """The run's :class:`Budget` from the governance flags.  Always
    built — a limit-free budget still carries the cancel token the
    SIGINT handler flips, which is what makes Ctrl-C graceful."""
    return Budget(
        timeout_s=args.timeout,
        max_memory_mb=args.max_memory_mb,
        max_rounds=args.max_rounds,
    )


@contextlib.contextmanager
def _sigint_cancels(budget: Budget):
    """Route SIGINT to the budget's cancel token for the duration:
    the governed run stops at its next budget check and reports
    ``cancelled`` instead of unwinding mid-round."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGINT)

    def _cancel(signum, frame):
        budget.cancel.cancel()

    signal.signal(signal.SIGINT, _cancel)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _cmd_classify(args) -> int:
    rules = _load_rules(args.rules)
    report = classify(rules)
    print(f"rules: {len(rules)}")
    print(f"narrowest class: {narrowest_class(rules)}")
    for name, value in sorted(report.items()):
        print(f"  {name}: {'yes' if value else 'no'}")
    return 0


def _cmd_check(args) -> int:
    rules = _load_rules(args.rules)
    budget = _budget_from(args)
    if args.full:
        from .termination import termination_report

        with _sigint_cancels(budget):
            report = termination_report(
                rules,
                standard=args.standard,
                allow_oracle=args.allow_oracle,
                budget=budget,
            )
        print(report.render())
        verdict = (
            report.semi_oblivious
            if args.variant in ("so", "semi_oblivious")
            else report.oblivious
        )
        if verdict is None:
            return 2
        return 0 if verdict.terminating else 1
    variant = _VARIANTS[args.variant]
    with _sigint_cancels(budget):
        verdict = decide_termination(
            rules,
            variant=variant,
            standard=args.standard,
            allow_oracle=args.allow_oracle,
            budget=budget,
        )
    print(verdict.explain())
    return 0 if verdict.terminating else 1


def _chase_summary(variant: str, result) -> None:
    status = _STATUS.get(result.stop_reason, result.stop_reason)
    print(f"% {variant} chase: {status} after {result.step_count} steps, "
          f"{len(result.instance)} facts")


def _refuse_given(refusal: str, flags) -> None:
    """A usage error that names every flag of ``flags`` (``(name,
    value)`` pairs) that was given; ``None`` and ``False`` mean not
    given.  ``refusal`` says what owns those settings instead."""
    given = [flag for flag, value in flags if value not in (None, False)]
    if given:
        raise ValueError(f"{refusal}; {', '.join(given)} only apply to "
                         f"fresh runs")


def _cmd_chase(args) -> int:
    budget = _budget_from(args)
    if args.resume is not None:
        # The store fixes the run's variant and directory.  No store
        # records a kernel (a resumed leg discovers with the tuple
        # loop), so --kernel would change nothing and is refused too.
        _refuse_given("--resume continues its own store", (
            ("DB", args.database),
            ("--save", args.save), ("--variant", args.variant),
            ("--kernel", args.kernel), ("--overwrite", args.overwrite),
        ))
        rules = _load_rules(args.rules) if args.rules else None
        # A bare --resume must make progress after a step_budget stop,
        # so the CLI applies its own fresh-run default rather than
        # replaying the checkpointed (possibly exhausted) cap.
        max_steps = args.max_steps if args.max_steps is not None else 10_000
        with _sigint_cancels(budget):
            result = resume_chase(
                args.resume, rules,
                max_steps=max_steps, budget=budget,
                save=not args.no_save,
            )
        _chase_summary(result.variant, result)
        print(instance_to_text(result.instance))
        return EXIT_CODES.get(result.stop_reason, 1)
    if not args.rules or not args.database:
        raise ValueError("chase needs RULES and DB (or --resume DIR)")
    if args.no_save:
        raise ValueError("--no-save only applies with --resume")
    rules = _load_rules(args.rules)
    database = _load_database(args.database)
    variant = _VARIANTS[args.variant or "r"]
    max_steps = args.max_steps if args.max_steps is not None else 10_000
    with _sigint_cancels(budget):
        result = run_chase(
            database, rules, variant, max_steps=max_steps,
            kernel=args.kernel or "tuple", budget=budget,
            save=args.save, overwrite=args.overwrite,
        )
    _chase_summary(variant, result)
    if args.save is not None and result.stop_reason != "fixpoint":
        print(f"% resumable: repro chase --resume {args.save}",
              file=sys.stderr)
    print(instance_to_text(result.instance))
    return EXIT_CODES.get(result.stop_reason, 1)


def _print_answers(query, instance, args, budget) -> None:
    """Print ``query`` over ``instance``: ``true``/``false`` for a
    boolean query, else one atom per answer over the query's answer
    predicate and a count line."""
    if query.is_boolean():
        holds = query.holds_in(instance, kernel=args.kernel, budget=budget)
        print("true" if holds else "false")
        return
    count = 0
    for line in query.answer_texts(
        instance, certain=args.certain, kernel=args.kernel, budget=budget,
    ):
        count += 1
        print(line)
    print(f"% {count} {'certain ' if args.certain else ''}answers")


def _query_over_store(args, budget) -> int:
    """``query --db DIR``: answer over a saved store, no re-chase."""
    from .storage import open_instance

    query = parse_query(args.query)
    instance = open_instance(args.db)
    terminated = None
    try:
        from .chase import load_state

        terminated = load_state(args.db, instance.store)["terminated"]
    except (ReproError, ValueError, OSError):
        pass  # a plain Instance.save() store carries no chase state
    print(f"% store {args.db}: {len(instance)} facts")
    if args.certain and terminated is False:
        print(
            "% warning: the saved chase did not terminate — the store "
            "is not a universal model; certain answers may be "
            "incomplete",
            file=sys.stderr,
        )
    _print_answers(query, instance, args, budget)
    return 0


def _cmd_query(args) -> int:
    budget = _budget_from(args)
    inputs = args.inputs
    if args.db is not None:
        if len(inputs) != 1:
            raise ValueError("with --db, pass just the query")
        _refuse_given("--db answers over its saved store", (
            ("--variant", args.variant), ("--max-steps", args.max_steps),
        ))
        args.query = inputs[0]
        with _sigint_cancels(budget):
            return _query_over_store(args, budget)
    if len(inputs) != 3:
        raise ValueError(
            "query needs RULES DB QUERY (or --db DIR QUERY)"
        )
    args.rules, args.database, args.query = inputs
    rules = _load_rules(args.rules)
    database = _load_database(args.database)
    query = parse_query(args.query)
    variant = _VARIANTS[args.variant or "r"]
    max_steps = args.max_steps if args.max_steps is not None else 10_000
    with _sigint_cancels(budget):
        result = run_chase(
            database, rules, variant, max_steps=max_steps,
            kernel=args.kernel, budget=budget,
        )
        _chase_summary(variant, result)
        if args.certain and not result.terminated:
            print(
                "% warning: chase budget exhausted — the instance is not a "
                "universal model; certain answers may be incomplete",
                file=sys.stderr,
            )
        _print_answers(query, result.instance, args, budget)
    return EXIT_CODES.get(result.stop_reason, 1)


def _cmd_inspect(args) -> int:
    """Summarize a saved store from its manifest and chase header
    alone — O(1) in the number of facts, no row segment is read."""
    import pickle

    from .storage import CHASE_STATE, read_manifest

    manifest = read_manifest(args.store)
    print(f"store: {args.store}")
    print(f"  facts: {manifest['facts']}")
    print(f"  symbols: {manifest['symbols']}")
    print(f"  predicates: {manifest['preds']}")
    print(f"  domain: {manifest['domain']}")
    rows = {
        pid: meta["rows"]
        for pid, meta in manifest["predicates"].items()
    }
    nonempty = sum(1 for n in rows.values() if n)
    print(f"  nonempty relations: {nonempty}")
    header_path = f"{args.store}/{CHASE_STATE}"
    import os

    if not os.path.exists(header_path):
        print("  chase state: none (plain instance store)")
        return 0
    with open(header_path, "rb") as handle:
        state = pickle.load(handle)
    status = (
        "terminated" if state["terminated"]
        else f"stopped: {_STATUS.get(state['stop_reason'], state['stop_reason'])}"
    )
    print(f"  chase: {state['variant']}, {status}")
    print(f"  steps: {state['n_steps']} (max_steps {state['max_steps']})")
    print(f"  rounds: {state['rounds']}")
    print(f"  rules: {len(state['rules'])}")
    print(f"  frontier: {len(state['frontier'])} fact(s) undiscovered")
    print(f"  pending: {len(state['pending'])} trigger(s) unapplied")
    if not state["terminated"]:
        print(f"  resumable: repro chase --resume {args.store}")
    return 0


def _cmd_critical(args) -> int:
    rules = _load_rules(args.rules)
    if args.standard:
        database = standard_critical_instance(rules)
    else:
        database = critical_instance(rules)
    print(instance_to_text(database))
    return 0


def _cmd_entail(args) -> int:
    from .entailment import entails_atom

    rules = _load_rules(args.rules)
    database = _load_database(args.database)
    atom = parse_atom(args.atom)
    entailed = entails_atom(rules, database, atom)
    print("entailed" if entailed else "not entailed")
    return 0 if entailed else 1


def _cmd_dot(args) -> int:
    rules = _load_rules(args.rules)
    from .graphs import dependency_graph, extended_dependency_graph
    from .graphs.dot import (
        dependency_graph_to_dot,
        joint_graph_to_dot,
        transition_graph_to_dot,
    )

    if args.graph == "dep":
        print(dependency_graph_to_dot(dependency_graph(rules)))
    elif args.graph == "extdep":
        print(dependency_graph_to_dot(
            extended_dependency_graph(rules), title="extended"
        ))
    elif args.graph == "joint":
        from .graphs.joint import existential_dependency_graph

        print(joint_graph_to_dot(existential_dependency_graph(rules)))
    else:
        from .termination import TransitionGraph, TypeAnalysis

        graph = TransitionGraph(TypeAnalysis(rules))
        print(transition_graph_to_dot(graph))
    return 0


def _cmd_serve(args) -> int:
    """Chase once (or reopen a store), then serve it over HTTP with
    incremental ingest.  Ctrl-C is the normal shutdown path and exits
    0 — in-flight requests are cancelled cooperatively through the
    service's shared token."""
    from .chase.incremental import ChaseSession
    from .serve import AdmissionController, ChaseServer, ChaseService

    budget = _budget_from(args)
    admission = AdmissionController(
        max_inflight=args.max_inflight,
        max_ingest_queue=args.max_ingest_queue,
    )
    ChaseService._check_settings(args.request_timeout, args.kernel)
    settings = dict(request_timeout_s=args.request_timeout,
                    admission=admission, kernel=args.kernel)
    if args.db is not None:
        if args.rules or args.database:
            raise ValueError("--db serves a saved store; drop RULES/DB")
        import os

        from .storage import CHASE_STATE, open_instance

        extendable = os.path.exists(os.path.join(args.db, CHASE_STATE))
        # The store fixes the chase; a plain store has none to cap.
        _refuse_given("--db serves its saved store", (
            ("--variant", args.variant), ("--save", args.save),
            ("--overwrite", args.overwrite),
            ("--max-steps", None if extendable else args.max_steps),
        ))
        if extendable:
            session = ChaseSession.resume(
                args.db, budget=budget, max_steps=args.max_steps,
            )
            service = ChaseService(session, journal=True, **settings)
            _chase_summary(session.variant, session.result)
            journal = service.journal
            if journal.torn_bytes:
                print(f"% journal: truncated {journal.torn_bytes} torn "
                      f"tail bytes")
            if service.ingests:
                # A fresh service's ingest count is exactly the
                # number of journal-replayed deltas.
                print(f"% journal: replayed {service.ingests} "
                      f"unacknowledged ingest delta(s)")
        else:
            # A plain Instance.save() store: queryable, not extendable.
            instance = open_instance(args.db)
            service = ChaseService(instance, **settings)
            print(f"% store {args.db}: {len(instance)} facts "
                  f"(read-only: no chase state)")
    else:
        if not args.rules or not args.database:
            raise ValueError("serve needs RULES and DB (or --db DIR)")
        rules = _load_rules(args.rules)
        database = _load_database(args.database)
        variant = _VARIANTS[args.variant or "r"]
        max_steps = (
            args.max_steps if args.max_steps is not None else 10_000
        )
        with _sigint_cancels(budget):
            session = ChaseSession.start(
                database, rules, variant=variant, max_steps=max_steps,
                kernel=args.kernel, budget=budget,
                save=args.save, overwrite=args.overwrite,
            )
        service = ChaseService(
            session, journal=bool(args.save), **settings
        )
        _chase_summary(variant, session.result)
        if budget.stop_reason == "cancelled":
            service.close()
            return EXIT_CODES["cancelled"]
    server = ChaseServer(service, host=args.host, port=args.port)
    try:
        server.run()
    except KeyboardInterrupt:
        print("% server stopped", file=sys.stderr)
    finally:
        service.close()
    return 0


def _add_kernel_flag(
    parser: argparse.ArgumentParser, default: Optional[str] = "tuple"
) -> None:
    """``--kernel``; ``default=None`` lets the command tell a given
    flag from the default, which it then resolves to ``tuple``."""
    parser.add_argument(
        "--kernel", choices=KERNELS, default=default,
        help="join execution tier (repro.query.kernels): 'tuple' is "
             "one-binding-at-a-time, 'vector' runs columnar batch "
             "hash joins (NumPy; the tuple loop without it), 'auto' "
             "picks per query/round from the statistics, leapfrog "
             "for cyclic queries (default: tuple)")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="wall-clock deadline in seconds; on expiry the run stops "
             "at the next step boundary and exits with code 4")
    parser.add_argument(
        "--max-memory-mb", type=float, default=None, metavar="M",
        help="process working-set ceiling in MiB; exceeded -> the run "
             "stops round-consistently and exits with code 5")
    parser.add_argument(
        "--max-rounds", type=int, default=None, metavar="N",
        help="stop after N chase/saturation rounds (exit code 1, like "
             "--max-steps)")


def _add_classify(classify_cmd: argparse.ArgumentParser) -> None:
    classify_cmd.add_argument("rules")
    classify_cmd.set_defaults(func=_cmd_classify)


def _add_check(check: argparse.ArgumentParser) -> None:
    check.add_argument("rules")
    check.add_argument("--variant", choices=sorted(_VARIANTS),
                       default="so")
    check.add_argument("--standard", action="store_true",
                       help="analyse over standard databases (0/1)")
    check.add_argument("--allow-oracle", action="store_true",
                       help="fall back to the budgeted oracle on "
                            "non-guarded input")
    check.add_argument("--full", action="store_true",
                       help="print the full report (classes, the "
                            "sufficient-condition zoo, both variants)")
    _add_budget_flags(check)
    check.set_defaults(func=_cmd_check)


def _add_chase(chase: argparse.ArgumentParser) -> None:
    chase.add_argument("rules", nargs="?", default=None)
    chase.add_argument("database", nargs="?", default=None)
    # --variant and --kernel default to None so that --resume can
    # refuse them; fresh runs resolve None to r and tuple.
    chase.add_argument("--variant", choices=sorted(_VARIANTS), default=None)
    chase.add_argument("--max-steps", type=int, default=None,
                       help="total trigger-application budget, counting "
                            "steps taken before a --resume (default "
                            "10000)")
    chase.add_argument("--save", metavar="DIR", default=None,
                       help="checkpoint the run into a durable fact "
                            "store at DIR (resumable after any "
                            "non-fixpoint stop)")
    chase.add_argument("--overwrite", action="store_true",
                       help="with --save, replace an existing store")
    chase.add_argument("--resume", metavar="DIR", default=None,
                       help="continue a checkpointed run from DIR "
                            "(RULES/DB come from the store; RULES may "
                            "be given to cross-check)")
    chase.add_argument("--no-save", action="store_true",
                       help="with --resume, continue in memory without "
                            "advancing the on-disk checkpoint")
    _add_kernel_flag(chase, default=None)
    _add_budget_flags(chase)
    chase.set_defaults(func=_cmd_chase)


def _add_query(query: argparse.ArgumentParser) -> None:
    query.add_argument("inputs", nargs="+",
                       metavar="RULES DB QUERY",
                       help="RULES DB QUERY — or just QUERY with --db; "
                            "a CQ such as \"q(X) :- e(X, Y)\" (a bare "
                            "conjunction is evaluated as a boolean "
                            "query)")
    query.add_argument("--db", metavar="DIR", default=None,
                       help="answer over a saved fact store instead of "
                            "chasing (no RULES/DB arguments)")
    query.add_argument("--certain", action="store_true",
                       help="print only null-free (certain) answers, "
                            "sorted")
    # --variant and --max-steps default to None so that --db can
    # refuse them; chasing runs resolve None to r and 10000.
    query.add_argument("--variant", choices=sorted(_VARIANTS), default=None)
    query.add_argument("--max-steps", type=int, default=None)
    _add_kernel_flag(query)
    _add_budget_flags(query)
    query.set_defaults(func=_cmd_query)


def _add_inspect(inspect: argparse.ArgumentParser) -> None:
    inspect.add_argument("store")
    inspect.set_defaults(func=_cmd_inspect)


def _add_critical(critical: argparse.ArgumentParser) -> None:
    critical.add_argument("rules")
    critical.add_argument("--standard", action="store_true")
    critical.set_defaults(func=_cmd_critical)


def _add_entail(entail: argparse.ArgumentParser) -> None:
    entail.add_argument("rules")
    entail.add_argument("database")
    entail.add_argument("atom")
    entail.set_defaults(func=_cmd_entail)


def _add_dot(dot: argparse.ArgumentParser) -> None:
    dot.add_argument("rules")
    dot.add_argument("--graph", choices=["dep", "extdep", "joint", "types"],
                     default="dep")
    dot.set_defaults(func=_cmd_dot)


def _add_serve(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("rules", nargs="?", default=None)
    serve.add_argument("database", nargs="?", default=None)
    serve.add_argument("--db", metavar="DIR", default=None,
                       help="serve a saved store: checkpointed stores "
                            "are extendable (ingest keeps "
                            "checkpointing), plain stores read-only")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks a free port and prints "
                            "it (default 8080)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="S",
                       help="per-request deadline cap in seconds; a "
                            "request may ask for less, never more.  "
                            "Also the time a client has to send its "
                            "request (408 after) (default 30)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       metavar="N",
                       help="admission gate: at most N requests in "
                            "flight service-wide; excess is shed with "
                            "503 + Retry-After (default 64)")
    serve.add_argument("--max-ingest-queue", type=int, default=16,
                       metavar="N",
                       help="at most N ingests waiting for the writer "
                            "lock; excess is shed with 429 + "
                            "Retry-After (default 16)")
    # None, so that --db can refuse it; fresh runs resolve it to r.
    serve.add_argument("--variant", choices=sorted(_VARIANTS), default=None)
    serve.add_argument("--max-steps", type=int, default=None,
                       help="step budget for the initial chase and all "
                            "ingest legs combined (default 10000)")
    serve.add_argument("--save", metavar="DIR", default=None,
                       help="checkpoint the served chase into a durable "
                            "store; ingested deltas persist there too")
    serve.add_argument("--overwrite", action="store_true",
                       help="with --save, replace an existing store")
    _add_kernel_flag(serve)
    _add_budget_flags(serve)
    serve.set_defaults(func=_cmd_serve)


#: Every subcommand, in usage order: name -> (help line, function that
#: adds its arguments and its ``func`` default to its subparser).
COMMANDS = {
    "classify": ("report class membership", _add_classify),
    "check": ("decide all-instance termination", _add_check),
    "chase": ("run a budgeted chase", _add_chase),
    "query": ("chase a database and answer a conjunctive query",
              _add_query),
    "inspect": ("summarize a saved fact store (manifest only)",
                _add_inspect),
    "critical": ("print the critical instance", _add_critical),
    "entail": ("guarded atom entailment", _add_entail),
    "dot": ("export a graph in DOT format", _add_dot),
    "serve": ("serve a resident chased instance over HTTP with "
              "incremental ingest", _add_serve),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every subcommand, or with ``command``
    (a :data:`COMMANDS` key) alone.  An invocation runs one command, so
    :func:`main` builds only its subparser; the usage line still lists
    all of them."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chase termination for guarded existential rules "
                    "(PODS 2015 reproduction)",
    )
    names = list(COMMANDS) if command is None else [command]
    # A metavar also renames the action in the "required" and "invalid
    # choice" errors, which only the full parser can report.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        help_line, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Help, a missing command and an unknown one need the full parser.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # A second Ctrl-C (or one outside the governed region) lands
        # here; still exit cleanly with the cancellation code.
        print("% cancelled: interrupted before completion",
              file=sys.stderr)
        return EXIT_CODES["cancelled"]
    except BudgetExceededError as exc:
        # The deciders/saturation raise instead of returning a partial
        # result (a half-saturated type table proves nothing): print a
        # one-line summary of where the budget tripped and exit with
        # the stop reason's code — no traceback.
        reason = exc.stop_reason or "step_budget"
        stats = ", ".join(
            f"{key}={value}" for key, value in sorted(exc.stats.items())
            if not isinstance(value, dict)
        )
        status = _STATUS.get(reason, reason)
        print(f"% {status}: {exc}" + (f" [{stats}]" if stats else ""),
              file=sys.stderr)
        return EXIT_CODES.get(reason, _BUDGET_EXIT_FALLBACK)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
