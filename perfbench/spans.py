"""Per-layer spans recorded from the benchmark's side of each layer
boundary.

:func:`install` wraps the public functions the CLI and the query
server call into each layer (``parser``, ``classes``, ``termination``,
``chase``, ``query``, ``storage``) and accumulates their wall time and
counts into the :class:`Recorder`'s current op.  Nothing under
``src/`` changes: the wrappers replace module attributes at the call
sites (``repro.cli.parse_program`` rather than
``repro.parser.parse_program``), so a layer is timed exactly where the
user-facing command enters it.  Counts are read from public results:
verdict ``stats``, the :class:`ChaseResult`, and ``CompiledQuery.stats``.

Only a process that calls :func:`install` pays for tracing; untraced
runs never import this module.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Spans and counts of the op in flight, one dict per finished op.

    The current op is thread-local: the query server runs each request
    on an executor thread, and its layer calls happen on that thread.
    Calls made while no op is open (start-up, checks) are recorded
    under :attr:`outside`.
    """

    def __init__(self):
        self.ops = []
        self.outside = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, **fields) -> None:
        record = defaultdict(float)
        record.update(fields)
        self._local.op = record

    def end(self) -> dict:
        record = self._local.op
        self._local.op = None
        for query in record.pop("_compiled", {}).values():
            record["query.plans"] += query.stats["plans"]
            record["query.plan_hits"] += query.stats["plan_hits"]
        with self._lock:
            self.ops.append(dict(record))
        return record

    def _current(self):
        op = getattr(self._local, "op", None)
        return self.outside if op is None else op

    def add(self, key: str, value: float) -> None:
        self._current()[key] += value

    def keep(self, compiled) -> None:
        op = getattr(self._local, "op", None)
        if op is not None:
            op.setdefault("_compiled", {})[id(compiled)] = compiled


def _timed(recorder: Recorder, key: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.add(key, (perf_counter() - start) * 1e3)
        if after is not None:
            after(recorder, result, args)
        return result
    return wrapper


def _timed_iter(recorder: Recorder, prefix: str, iterator):
    """Time each ``next()`` of a lazy answer stream, so answer time is
    separated from the rendering interleaved with it."""
    while True:
        start = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            recorder.add(prefix + "_ms", (perf_counter() - start) * 1e3)
            return
        recorder.add(prefix + "_ms", (perf_counter() - start) * 1e3)
        recorder.add(prefix + "s", 1)
        yield item


def _patch(module, name: str, wrapper_factory) -> None:
    setattr(module, name, wrapper_factory(getattr(module, name)))


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import repro.cli as cli
    import repro.query.compiled as compiled
    import repro.serve.service as service
    import repro.termination.decider as decider
    from repro.chase.incremental import ChaseSession
    from repro.cq.queries import ConjunctiveQuery

    def verdict_counts(rec, verdict, args):
        for key in ("types", "pattern_joins"):
            if key in verdict.stats:
                rec.add("termination." + key, verdict.stats[key])

    def chase_counts(rec, result, args):
        rec.add("chase.steps", result.step_count)
        rec.add("chase.facts", len(result.instance) - len(args[0]))

    # parser: programs, databases, rendered answers
    _patch(cli, "parse_program",
           lambda fn: _timed(recorder, "parser.program_ms", fn))
    _patch(cli, "parse_database",
           lambda fn: _timed(recorder, "parser.database_ms", fn))
    _patch(cli, "atom_to_text",
           lambda fn: _timed(recorder, "parser.render_ms", fn))
    _patch(service, "atom_to_text",
           lambda fn: _timed(recorder, "parser.render_ms", fn))
    # classes and termination: the front-door decider's dispatch
    for name in ("is_full", "narrowest_class"):
        _patch(decider, name,
               lambda fn: _timed(recorder, "classes.classify_ms", fn))
    for name, key in (("decide_simple_linear", "termination.sl_ms"),
                      ("decide_linear", "termination.linear_ms"),
                      ("decide_guarded", "termination.guarded_ms")):
        _patch(decider, name, functools.partial(
            _timed, recorder, key, after=verdict_counts))
    # chase: the CLI's full run and the server's incremental legs
    _patch(cli, "run_chase", functools.partial(
        _timed, recorder, "chase.run_ms", after=chase_counts))
    ChaseSession.extend = _timed(
        recorder, "chase.extend_ms", ChaseSession.extend)
    # storage: snapshot publishing after every ingest leg
    ChaseSession.snapshot = _timed(
        recorder, "storage.snapshot_ms", ChaseSession.snapshot)
    # query: planning, answer enumeration, plan-cache counters
    _patch(compiled, "order_for",
           lambda fn: _timed(recorder, "query.plan_ms", fn))
    plain_answers = ConjunctiveQuery.answers
    plain_certain = ConjunctiveQuery.certain_answers
    plain_compiled = ConjunctiveQuery.compiled

    def answers(self, *args, **kwargs):
        return _timed_iter(recorder, "query.answer",
                           plain_answers(self, *args, **kwargs))

    def certain_answers(self, *args, **kwargs):
        start = perf_counter()
        result = plain_certain(self, *args, **kwargs)
        recorder.add("query.answer_ms", (perf_counter() - start) * 1e3)
        recorder.add("query.answers", len(result))
        return result

    def compiled_query(self, *args, **kwargs):
        result = plain_compiled(self, *args, **kwargs)
        recorder.keep(result)
        return result

    ConjunctiveQuery.answers = answers
    ConjunctiveQuery.certain_answers = certain_answers
    ConjunctiveQuery.compiled = compiled_query

    # serve: one op per service call, on the executor thread
    def service_op(kind, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            recorder.begin(kind=kind)
            try:
                return fn(self, *args, **kwargs)
            finally:
                recorder.end()
        return wrapper

    service.ChaseService.query = service_op(
        "query", service.ChaseService.query)
    service.ChaseService.ingest = service_op(
        "ingest", service.ChaseService.ingest)
