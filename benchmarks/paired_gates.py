"""In-process paired speed gates.

Five gates, each comparing two code paths in one process on a
fixed-size input, so the host's speed drops out of the verdict:

============  ====================================================  ============
gate          arms                                                  threshold
============  ====================================================  ============
vector        ``CompiledQuery.answer_ids``, tuple vs vector kernel  >= 2x
wcoj          tuple vs ``auto`` (leapfrog) on planted triangles     >= 2x
incremental   ``ChaseSession.extend`` legs vs re-chasing the union  >= 2x
wal           journaled vs journal-less durable ingest              <= 10%
governed      chase under a never-tripping ``Budget`` vs without    <= 5% + 1 ms
============  ====================================================  ============

Each gate first runs both arms once, untimed, and asserts that they
compute the same result; then it times interleaved pairs, alternating
which arm runs first, with a full collection before each arm and the
collector off while the clock runs (a collection landing in one arm
and not the other would skew that pair).  The verdict reads the median
of the per-pair ratios.  Results are compared again on every pair.

The vector gate is judged only when NumPy is installed: without it
the vector kernel runs the tuple loop, so both arms run the same
code.  No caller can force the leapfrog engine, so the wcoj gate
times ``auto`` after checking that ``auto`` picks it.  The wal gate times the journal's own calls inside the
journaled legs, so the numerator and denominator of each pair's ratio
come from the same run; the journal-less arm is its equality partner.

Usage::

    PYTHONPATH=src python benchmarks/paired_gates.py

Prints one line per gate and exits 1, naming every gate that failed.
``benchmarks/test_paired_gates.py`` runs each gate at a toy size for
one pair, so the equality assertions run in the tier-1 suite.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter
from typing import Callable, List, NamedTuple, Sequence, Tuple

from repro.chase import ChaseVariant, run_chase
from repro.model import Atom, Constant, Database, Instance, Predicate, Variable
from repro.parser import parse_program

X, Y, Z, W = (Variable(name) for name in "XYZW")
SO = ChaseVariant.SEMI_OBLIVIOUS
MAX_STEPS = 10_000_000

SPEEDUP = 2.0          # vector, wcoj and incremental: fast arm >= 2x
WAL_PCT = 10.0         # journal wall over the journaled legs' chase wall
GOVERNED_PCT = 5.0     # governed over ungoverned ...
GOVERNED_SLACK_S = 0.001  # ... plus this much wall, for timer jitter


class Verdict(NamedTuple):
    gate: str
    passed: bool
    summary: str


def clocked(work: Callable[[], object]) -> Tuple[float, object]:
    """``(wall_s, work())``, with the collector off while the clock
    runs."""
    gc.disable()
    try:
        start = perf_counter()
        out = work()
        return perf_counter() - start, out
    finally:
        gc.enable()


def paired(gate: str, first: Callable, second: Callable, pairs: int) -> List:
    """Run an untimed warm-up pair and ``pairs`` timed pairs of two arms.

    An arm takes no argument and returns ``(timing, result)``: it times
    its own work, so untimed setup stays off the clock.  The two arms'
    results must be equal on every pair.  The order alternates, and a
    full collection precedes each arm.  Returns the timed pairs as
    ``[(first timing, second timing), ...]``.
    """
    timings = []
    for index in range(pairs + 1):
        out = [None, None]
        for side in ((0, 1) if index % 2 else (1, 0)):
            gc.collect()
            out[side] = (first, second)[side]()
        if out[0][1] != out[1][1]:
            raise AssertionError(f"{gate}: the two arms computed different results")
        if index:
            timings.append((out[0][0], out[1][0]))
    return timings


def chain(n: int, start: int = 0) -> List[Atom]:
    e = Predicate("e", 2)
    return [Atom(e, [Constant(f"c{i}"), Constant(f"c{i + 1}")])
            for i in range(start, start + n)]


CLOSURE = parse_program("e(X, Y) -> p(X, Y)\np(X, Y), e(Y, Z) -> p(X, Z)")


# -- the gates -------------------------------------------------------------


def kernel_gate(gate, kernel, instance, answer_variables, atoms, ordered,
                pairs, judged=True) -> Verdict:
    """The tuple kernel vs ``kernel`` over one instance, in id space:
    decoding back to terms is the same work per answer on every kernel.
    ``ordered`` compares answer sequences, otherwise answer sets."""
    from repro.query.compiled import CompiledQuery

    def arm(name):
        query = CompiledQuery(answer_variables, atoms, kernel=name)
        shape = list if ordered else set
        return lambda: clocked(lambda: shape(query.answer_ids(instance)))

    walls = paired(gate, arm("tuple"), arm(kernel), pairs)
    speedup = statistics.median(slow / fast for slow, fast in walls)
    if not judged:
        return Verdict(gate, True, f"{speedup:.2f}x (not judged without NumPy)")
    return Verdict(gate, speedup >= SPEEDUP,
                   f"{speedup:.2f}x (gate >= {SPEEDUP:g}x)")


def vector_gate(n_fact=8000, n_hub=40, pairs=11) -> Verdict:
    """A chained hash join ``fact(X, Y), dim(Y, Z), attr(Z, W)`` where
    every probe hits and ``attr`` folds the dim fan-out back to one
    label per hub: ~5 intermediate matches per answer."""
    from repro.query import numpy_active

    fact, dim, attr = (Predicate(name, 2) for name in ("fact", "dim", "attr"))
    instance = Instance()
    for i in range(n_fact):
        instance.add(Atom(fact, [Constant(f"x{i}"), Constant(f"h{i % n_hub}")]))
    for h in range(n_hub):
        for j in range(5):
            instance.add(Atom(dim, [Constant(f"h{h}"), Constant(f"z{h}_{j}")]))
            instance.add(Atom(attr, [Constant(f"z{h}_{j}"), Constant(f"a{h}")]))
    atoms = [Atom(fact, [X, Y]), Atom(dim, [Y, Z]), Atom(attr, [Z, W])]
    return kernel_gate("vector", "vector", instance, [X, W], atoms, True,
                       pairs, judged=numpy_active())


def wcoj_gate(n_pairs=64, n_mid=25, pairs=11) -> Verdict:
    """Triangles ``e(X, Y), e(Y, Z), e(Z, X)`` over a tripartite graph
    whose fully shared middle layer makes every two-path live, while
    only the planted ``w_p -> u_p`` edges close a triangle.  The fast
    arm is ``auto``, whose pick here must be the leapfrog engine."""
    from repro.query import choose_kernel

    e = Predicate("e", 2)
    instance = Instance()
    for p in range(n_pairs):
        for m in range(n_mid):
            instance.add(Atom(e, [Constant(f"u{p}"), Constant(f"m{m}")]))
            instance.add(Atom(e, [Constant(f"m{m}"), Constant(f"w{p}")]))
    for p in range(n_pairs):
        instance.add(Atom(e, [Constant(f"w{p}"), Constant(f"u{p}")]))
    atoms = [Atom(e, [X, Y]), Atom(e, [Y, Z]), Atom(e, [Z, X])]
    pick = choose_kernel(atoms, instance)
    if pick != "wcoj":
        raise AssertionError(f"wcoj: auto picked {pick!r}, not the leapfrog engine")
    return kernel_gate("wcoj", "auto", instance, [X, Y, Z], atoms, False, pairs)


def incremental_gate(n=150, deltas=12, pairs=5) -> Verdict:
    """Transitive closure over a chain that grows one edge per delta:
    each ``extend`` derives only the new endpoint's paths, while a
    re-chase recomputes the whole quadratic closure."""
    from repro.chase.incremental import ChaseSession

    schedule = [chain(1, n + j) for j in range(deltas)]

    def extend():
        session = ChaseSession.start(Database(chain(n)), CLOSURE, variant=SO,
                                     max_steps=MAX_STEPS)
        wall, _ = clocked(lambda: [session.extend(delta) for delta in schedule])
        facts = set(session.instance.facts())
        session.close()
        return wall, facts

    def rechase():
        union = Database(chain(n))

        def run():
            for delta in schedule:
                for fact in delta:
                    union.add(fact)
                result = run_chase(union, CLOSURE, SO, MAX_STEPS)
            return set(result.instance.facts())

        return clocked(run)

    walls = paired("incremental", extend, rechase, pairs)
    speedup = statistics.median(slow / fast for fast, slow in walls)
    return Verdict("incremental", speedup >= SPEEDUP,
                   f"{speedup:.2f}x (gate >= {SPEEDUP:g}x)")


class _TimedJournal:
    """A journal proxy that adds up the wall spent in the durability
    calls (``append_delta``'s encode, write and fsync, and
    ``append_ack``)."""

    def __init__(self, inner):
        self.inner = inner
        self.wall = 0.0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _timed(self, call, *args, **kwargs):
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.wall += perf_counter() - start

    def append_delta(self, *args, **kwargs):
        return self._timed(self.inner.append_delta, *args, **kwargs)

    def append_ack(self, *args, **kwargs):
        return self._timed(self.inner.append_ack, *args, **kwargs)


def wal_gate(n=400, width=12, deltas=6, pairs=5) -> Verdict:
    """Durable ingest of ``deltas`` batches of ``width`` chain edges
    into a checkpointed closure resident, with and without the
    write-ahead ingest journal."""
    from repro.chase.incremental import ChaseSession
    from repro.serve import ChaseService

    batches = [[f"e(c{i}, c{i + 1})" for i in range(n + j * width,
                                                    n + (j + 1) * width)]
               for j in range(deltas)]
    runs = itertools.count()

    def arm(journal):
        def run():
            store = os.path.join(tmp, f"run-{next(runs)}")
            shutil.copytree(template, store)
            service = ChaseService(ChaseSession.resume(store), journal=journal,
                                   request_timeout_s=None)
            timer = None
            if journal:
                timer = service.journal = _TimedJournal(service.journal)
            try:
                wall, out = clocked(lambda: [
                    service.ingest(batch, ingest_id=f"d{index}")
                    for index, batch in enumerate(batches)])
            finally:
                service.close()
                shutil.rmtree(store)
            return (wall, timer.wall if timer else 0.0), out[-1]["watermark"]
        return run

    with tempfile.TemporaryDirectory() as tmp:
        template = os.path.join(tmp, "template")
        ChaseSession.start(Database(chain(n)), CLOSURE, variant=SO,
                           max_steps=MAX_STEPS, save=template).close()
        walls = paired("wal", arm(False), arm(True), pairs)
    pct = 100 * statistics.median(
        journal / (wall - journal) for _, (wall, journal) in walls)
    return Verdict("wal", pct <= WAL_PCT, f"{pct:.2f}% (gate <= {WAL_PCT:g}%)")


def governed_gate(n=2600, pairs=41) -> Verdict:
    """Path composition ``e(X, Y), e(Y, Z) -> p(X, Z)`` over an
    ``n``-edge chain, under a budget whose every check runs (deadline
    clock, fact cap, throttled memory probe) and none trips."""
    from repro.runtime import Budget

    rules = parse_program("e(X, Y), e(Y, Z) -> p(X, Z)")
    database = Database(chain(n))

    def arm(governed):
        def run():
            budget = (Budget(timeout_s=3600.0, max_rounds=10**9, max_facts=10**12,
                             max_memory_mb=float(1 << 20)) if governed else None)
            wall, result = clocked(
                lambda: run_chase(database, rules, SO, MAX_STEPS, budget=budget))
            if result.stop_reason != "fixpoint":
                raise AssertionError(f"governed: stopped at {result.stop_reason}")
            return wall, result.instance.facts()
        return run

    walls = paired("governed", arm(False), arm(True), pairs)
    pct = 100 * statistics.median(gov / base - 1 for base, gov in walls)
    base_s = statistics.median(base for base, _ in walls)
    allowed = GOVERNED_PCT + 100 * GOVERNED_SLACK_S / base_s
    return Verdict("governed", pct <= allowed,
                   f"{pct:+.2f}% over {1e3 * base_s:.1f} ms (gate <= "
                   f"{GOVERNED_PCT:g}% + {1e3 * GOVERNED_SLACK_S:g} ms = "
                   f"{allowed:.2f}%)")


GATES: Sequence[Callable[[], Verdict]] = (
    vector_gate, wcoj_gate, incremental_gate, wal_gate, governed_gate,
)


def main() -> int:
    failed = []
    for gate in GATES:
        verdict = gate()
        print(f"{verdict.gate:<12} {'pass' if verdict.passed else 'FAIL'}  "
              f"{verdict.summary}", flush=True)
        if not verdict.passed:
            failed.append(verdict.gate)
    if failed:
        print(f"paired gates failed: {', '.join(failed)}")
        return 1
    print("paired gates: all pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
