"""End-to-end and per-layer benchmark of the ``repro`` CLI and query
server.

    python3 perfbench/run.py --workload decide|materialize|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from
``src/``).  Every run executes three closed loops with one op
outstanding at a time, with the program's default flags (plus a step
cap that reaches the fixpoint and ``--port 0``):

``decide``
    ``repro check RULES`` in-process through ``repro.cli.main`` over
    distinct seeded rule sets (SL, linear, guarded; random shapes and
    parametric families).
``materialize``
    ``repro query RULES DB QUERY`` in-process over seeded
    guarded-tower databases under the default restricted chase.
``serve``
    a ``repro serve`` subprocess over a data-exchange resident, driven
    over HTTP with a fixed schedule of writes (``/facts``), selective
    lookups and ~150-answer scans (``/query``).

A run is ``gen.SEGMENTS`` segments.  Each cold-starts one worker per
in-process loop and one server (the cold starts give ``setup_s``),
then runs its share of the three loops in interleaved blocks, pinned
to one CPU, so that every op type samples the whole run and not one
phase of the host's speed.  After the last segment every answer and
verdict is checked, untimed and on every CPU; a wrong one fails the
op, and any failed op makes the run exit 1.

Every timing metric is taken at a nominal host speed.  A shared host's
speed moves by a third and more over minutes, longer than a run (on a
2-vCPU sandbox the medians of ten-run sets taken minutes apart moved by
35%), so no aggregation within a run can remove it.  A short fixed
reference loop is therefore timed right before and right after every
op and cold start, outside their timings, and each time is scaled by
``REF_NOMINAL_MS`` over the mean of its two reference times: on a host
of steady speed this is wall time times a constant, and a slower
program still reads slower by the same ratio.  Each metric line also
prints its plain wall-clock value.

Every op type has its own latency metrics, so all of them are printed
on every workload; ``--workload`` names the loop whose process-level
metrics (``setup_s``, ``peak_rss_mb``, ``ops_per_s``) are reported.
Op counts are fixed by ``--seconds`` (10 gives about that long of
timed ops on a 2-vCPU host) and the inputs by ``--seed``; neither
depends on how fast the program runs.

``--trace 1`` runs every loop twice, untraced and with the spans of
``spans.py``, and prints the per-layer metrics and the tracing
overhead instead of the end-to-end metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from time import perf_counter

import gen
import verify
from worker import peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
LOOPS = ("decide", "materialize", "serve")
#: The tail is the highest of these percentiles that leaves at least
#: ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: A relative step between neighbouring op costs above this, at an op
#: type's p50 or tail, is a gap: the percentile would jump between two
#: populations instead of moving with the program.  The traced run
#: prints a ``# GAP`` warning for each one and reports the widest step
#: as ``bench.gap_max``.
GAP_LIMIT = 0.25
#: The step cap passed to ``repro serve``: its default (10000) counts
#: the initial chase and every later ingest leg together.
SERVE_MAX_STEPS = "1000000"
PROCESS_TIMEOUT_S = 150
#: Blocks per segment in which the three loops take turns.
BLOCKS = 8

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
    ("decide_p50_ms", "ms"), ("decide_tail_ms", "ms"),
    ("materialize_p50_ms", "ms"), ("materialize_tail_ms", "ms"),
    ("lookup_p50_ms", "ms"), ("lookup_tail_ms", "ms"),
    ("scan_p50_ms", "ms"), ("scan_tail_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_tail_ms", "ms"),
)


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


# -- statistics ---------------------------------------------------------------


def tail(values):
    """``(percentile, value, samples beyond)`` of the tail: the highest
    ladder percentile with at least ``TAIL_BEYOND`` samples above its
    nearest-rank value."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        index = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - 1 - index >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, ordered[index], n - 1 - index
    raise AssertionError("unreachable")


def gap(values, pct):
    """The widest step between neighbouring samples within 2.5
    percentage points of ``pct``, relative to the value there: near 0
    when the cost distribution is continuous at that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, math.ceil(pct / 100.0 * n) - 1)
    reach = max(1, round(0.025 * n))
    lo, hi = max(0, index - reach), min(n - 1, index + reach)
    steps = [ordered[i + 1] - ordered[i] for i in range(lo, hi)]
    return max(steps, default=0.0) / ordered[index] if ordered[index] else 0.0


#: Iterations of the reference loop, and its time at the nominal host
#: speed that timing metrics are scaled to: about its median on a
#: 2-vCPU host at that host's usual speed, so that scaled times stay
#: close to wall times there.
REF_ITERATIONS = 10_000
REF_NOMINAL_MS = 0.8


def reference_loop_ms():
    """A fixed pure-Python loop, timed next to every op: the host's
    speed at that moment."""
    start = perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return (perf_counter() - start) * 1e3


def at_nominal(value, host_ms):
    """A time measured while the reference loop took ``host_ms``,
    scaled to the nominal host speed."""
    return value * REF_NOMINAL_MS / host_ms


# -- processes ----------------------------------------------------------------


class Run:
    """One benchmark run: its scratch directory, child environment,
    started processes and host-speed samples."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.inputs = os.path.join(workdir, "inputs")
        # Children never see REPRO_* variables: REPRO_FAULTS injects
        # faults, and any non-empty REPRO_NO_NUMPY (even "0") turns
        # NumPy off.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"),
                        self.env.get("PYTHONPATH")) if p)
        self.procs = []
        self.ref_ms = []

    def sample_host(self):
        """Time the reference loop; returns (and keeps) its time."""
        self.ref_ms.append(reference_loop_ms())
        return self.ref_ms[-1]

    def spawn(self, argv, tag, **kwargs):
        """Start a child whose stderr goes to ``<tag>.err``."""
        with open(os.path.join(self.workdir, f"{tag}.err"), "w") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stderr=err, **kwargs)
        self.procs.append(proc)
        return proc

    def wait(self, proc, tag):
        """Wait for a child to exit 0, draining its stdout."""
        try:
            proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} timed out")
        self._check_exit(proc, tag)

    def _check_exit(self, proc, tag):
        if proc.returncode != 0:
            with open(os.path.join(self.workdir, f"{tag}.err")) as err:
                raise BenchError(f"{tag} exited {proc.returncode}:\n"
                                 f"{err.read()[-2000:]}")

    def reap(self, proc, tag):
        """Wait for a child to exit 0 (its stdout is left to whoever is
        reading it)."""
        try:
            proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not exit")
        self._check_exit(proc, tag)

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()


class Worker:
    """A cold ``worker.py ops`` process that runs one in-process op per
    :meth:`call`."""

    def __init__(self, run: Run, loop, tag, trace):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "ops",
                "--loop", loop, "--inputs", run.inputs]
        if trace:
            argv.append("--trace")
        self.run, self.tag = run, tag
        start = perf_counter()
        self.proc = run.spawn(argv, tag, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if ready.strip() != "ready":
            run.wait(self.proc, tag)
            raise BenchError(f"{tag} never reported ready")

    def _ask(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.run.wait(self.proc, self.tag)
            raise BenchError(f"{self.tag} stopped answering")
        return json.loads(line)

    def call(self, op):
        return self._ask(json.dumps(op))

    def close(self):
        """End the session: peak RSS, import times and spans."""
        final = self._ask("")
        self.run.wait(self.proc, self.tag)
        return final


def http_call(port, path, body):
    """One HTTP round trip on a fresh connection (the server closes
    each one): ``(status, payload, seconds)``."""
    data = json.dumps(body)
    start = perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as exc:
        return 0, {"error": repr(exc)}, perf_counter() - start
    finally:
        conn.close()
    elapsed = perf_counter() - start
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = {}
    return status, payload, elapsed


class Server:
    """One ``repro serve`` lifetime: cold start up to its ``% serving
    on`` line, then untimed warm-up reads."""

    def __init__(self, run: Run, manifest, segment, trace):
        serve = manifest["serve"]
        args = ["serve", os.path.join(run.inputs, serve["rules"]),
                os.path.join(run.inputs, serve["db"]), "--port", "0",
                "--max-steps", SERVE_MAX_STEPS]
        self.run = run
        self.tag = f"serve-{'t' if trace else 'u'}{segment}"
        self.spans_path = None
        if trace:
            self.spans_path = os.path.join(run.workdir,
                                           f"{self.tag}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "worker.py"),
                    "serve", "--spans", self.spans_path, "--"] + args
        else:
            argv = [sys.executable, "-m", "repro"] + args
        start = perf_counter()
        self.proc = run.spawn(argv, self.tag, stdout=subprocess.PIPE,
                              text=True)
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                run.wait(self.proc, self.tag)
                raise BenchError(f"{self.tag}: exited during start-up")
            if line.startswith("% serving on "):
                self.port = int(line.rsplit(":", 1)[1])
        self.setup_s = perf_counter() - start
        self.drain = threading.Thread(target=self.proc.stdout.read,
                                      daemon=True)
        self.drain.start()
        for request in gen.SERVE_WARMUP:
            self.call(request)

    def call(self, op):
        return http_call(self.port, op["path"], op["body"])

    def close(self):
        """The final queries, peak RSS and spans; then SIGTERM, which
        must end the server with exit code 0."""
        final = {
            "certain": self.call({"path": "/query", "body": {
                "query": verify.SERVE_FINAL_CERTAIN, "certain": True}}),
            "count": self.call({"path": "/query", "body": {
                "query": verify.SERVE_FINAL_COUNT}}),
        }
        rss_mb = peak_rss_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        self.run.reap(self.proc, self.tag)
        self.drain.join(timeout=30)
        spans = {"ops": [], "outside": {}}
        if self.spans_path is not None:
            with open(self.spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        return {"final": final, "rss_mb": rss_mb, "spans": spans}


def interleave(lanes):
    """Cut each lane into ``BLOCKS`` runs of consecutive ops and take
    the lanes' blocks in turn, so every lane is spread over the whole
    sequence while consecutive ops of one lane still share warm
    caches."""
    merged = []
    for block in range(BLOCKS):
        for loop, ops in lanes.items():
            lo = len(ops) * block // BLOCKS
            hi = len(ops) * (block + 1) // BLOCKS
            merged += [(loop, op) for op in ops[lo:hi]]
    return merged


@contextlib.contextmanager
def one_cpu():
    """Pin this process and the children it starts to one CPU.  One op
    is outstanding at a time, so the timed loops need no more; pinned,
    the client and the server are never woken on another, possibly
    busy, CPU at a request hand-off."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_pass(run: Run, manifest, trace):
    """Every loop once, over ``gen.SEGMENTS`` consecutive segments.
    Each segment cold-starts a decide worker, a materialize worker and
    a server, then runs its share of all three loops in interleaved
    blocks of ops (one op outstanding at a time), so every op type
    samples the whole run rather than one phase of the host's speed."""
    with open(os.path.join(run.inputs, manifest["serve"]["schedule"])) \
            as handle:
        schedule = [json.loads(line) for line in handle]
    mode = "t" if trace else "u"
    inprocess = {loop: {"ops": [], "setup_s": [], "setup_wall_s": [],
                        "finals": []}
                 for loop in ("decide", "materialize")}
    segments = []
    for segment in range(gen.SEGMENTS):
        lanes = {loop: manifest[loop][segment::gen.SEGMENTS]
                 for loop in ("decide", "materialize")}
        lanes["serve"] = [op for op in schedule
                          if op["segment"] == segment]
        done = {"decide": [], "materialize": []}
        with one_cpu():
            workers, host = {}, {}
            for loop in ("decide", "materialize"):
                before = run.sample_host()
                workers[loop] = Worker(run, loop, f"{loop}-{mode}{segment}",
                                       trace)
                host[loop] = (before + run.sample_host()) / 2
            before = run.sample_host()
            server = Server(run, manifest, segment, trace)
            host["serve"] = (before + run.sample_host()) / 2
            records = []
            gc.collect()
            gc.disable()  # the parent's collections stay out of timings
            try:
                before = run.sample_host()
                for loop, op in interleave(lanes):
                    if loop == "serve":
                        status, payload, seconds = server.call(op)
                        record = {"op": op["op"], "ms": seconds * 1e3,
                                  "status": status, "payload": payload}
                        records.append(record)
                    else:
                        record = workers[loop].call(op)
                        done[loop].append(record)
                    after = run.sample_host()
                    record["nominal_ms"] = at_nominal(
                        record["ms"], (before + after) / 2)
                    before = after
            finally:
                gc.enable()
            for loop, worker in workers.items():
                inprocess[loop]["setup_s"].append(
                    at_nominal(worker.setup_s, host[loop]))
                inprocess[loop]["setup_wall_s"].append(worker.setup_s)
                inprocess[loop]["finals"].append(worker.close())
                inprocess[loop]["ops"] += done[loop]
            segments.append(dict(
                server.close(), ops=lanes["serve"], results=records,
                setup_s=at_nominal(server.setup_s, host["serve"]),
                setup_wall_s=server.setup_s))
    loops = {}
    for loop, acc in inprocess.items():
        finals = acc["finals"]
        loops[loop] = {
            "ops": acc["ops"],
            "setup_s": acc["setup_s"],
            "setup_wall_s": acc["setup_wall_s"],
            "import_s": [f["import_s"] for f in finals],
            "numpy_import_s": [f["numpy_import_s"] for f in finals],
            "rss_mb": max(f["maxrss_mb"] for f in finals),
            "spans": [span for f in finals for span in f["spans"]],
        }
    results = [r for s in segments for r in s["results"]]
    loops["serve"] = {
        "results": results,
        "setup_s": [s["setup_s"] for s in segments],
        "setup_wall_s": [s["setup_wall_s"] for s in segments],
        "rss_mb": max(s["rss_mb"] for s in segments),
        "segments": segments,
    }
    return loops


def plant_wrong_answers(loops):
    """Corrupt one result of each loop, as a wrong program would: a
    flipped verdict, a wrong answer atom, a wrong answer count."""
    op = loops["decide"]["ops"][0]
    op["code"] = 1 - op["code"]
    op = loops["materialize"]["ops"][0]
    lines = op["out"].splitlines(keepends=True)
    lines[1] = "q(planted)\n"
    op["out"] = "".join(lines)
    scan = next(r for r in loops["serve"]["results"] if r["op"] == "scan")
    scan["payload"]["count"] += 1


def check_response(op, status, payload):
    if status != 200:
        return f"HTTP {status}: {payload.get('error', '')}"[:300]
    if op["op"] == "write":
        if payload.get("stop_reason") != "fixpoint":
            return f"ingest stopped: {payload.get('stop_reason')}"
        if payload.get("new_facts") != op["expect"]:
            return f"new_facts {payload.get('new_facts')} != {op['expect']}"
    elif payload.get("count") != op["expect"] or \
            len(payload.get("answers", ())) != op["expect"]:
        return f"{payload.get('count')} answers, expected {op['expect']}"
    return None


def check_serve(run: Run, manifest, segment):
    """Every response against its expected count, and the segment's
    final answers against a from-scratch chase of the base facts plus
    every delta the segment ingested."""
    with open(os.path.join(run.inputs, manifest["serve"]["rules"])) as fh:
        rules = fh.read()
    with open(os.path.join(run.inputs, manifest["serve"]["db"])) as fh:
        db = fh.read()
    errors, deltas = [], []
    for op, record in zip(segment["ops"], segment["results"]):
        error = check_response(op, record["status"], record["payload"])
        errors.append(error and f"serve op {op['seq']}: {error}")
        if op["op"] == "write" and record["status"] == 200:
            deltas.append(op["body"]["facts"])
    expected = verify.serve_reference(rules, db, deltas)
    status, payload, _ = segment["final"]["certain"]
    if status != 200 or sorted(payload.get("answers", ())) != \
            expected["certain"]:
        errors.append("final certain answers differ from a from-scratch "
                      "chase")
    status, payload, _ = segment["final"]["count"]
    if status != 200 or payload.get("count") != expected["count"]:
        errors.append(f"final located count {payload.get('count')} != "
                      f"{expected['count']} from scratch")
    return [e for e in errors if e]


def serve_errors(run: Run, manifest, loops):
    return [error for segment in loops["serve"]["segments"]
            for error in check_serve(run, manifest, segment)]


def check_run(run: Run, manifest, loops):
    """All checks of an untraced pass, once its last segment is done:
    the decide and materialize outputs on two checker processes side by
    side, every segment's serve responses in this process meanwhile."""
    entries = {e["id"]: e for loop in ("decide", "materialize")
               for e in manifest[loop]}
    items = [{"loop": loop, "op": entries[result["id"]], "result": result}
             for loop in ("decide", "materialize")
             for result in loops[loop]["ops"]]
    halves = [items[0::2], items[1::2]]
    procs = []
    for index, half in enumerate(halves):
        tag = f"check-{index}"
        chunk = os.path.join(run.workdir, f"{tag}.chunk.json")
        with open(chunk, "w", encoding="utf-8") as handle:
            json.dump({"inputs": run.inputs, "items": half}, handle)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "check",
                "--chunk", chunk, "--out",
                os.path.join(run.workdir, f"{tag}.out.json")]
        procs.append((run.spawn(argv, tag, stdout=subprocess.DEVNULL), tag))
    errors = serve_errors(run, manifest, loops)
    for (proc, tag), half in zip(procs, halves):
        run.wait(proc, tag)
        with open(os.path.join(run.workdir, f"{tag}.out.json")) as handle:
            results = json.load(handle)
        errors += [f"{item['op']['id']}: {error}"
                   for item, error in zip(half, results) if error]
    return errors


# -- metrics ------------------------------------------------------------------


OP_TYPES = ("decide", "materialize", "lookup", "scan", "write")


def times(loops, kind, key="nominal_ms"):
    """Per-op times of one op type in ms: ``nominal_ms`` (scaled to the
    nominal host speed) or ``ms`` (wall clock)."""
    if kind in ("decide", "materialize"):
        return [op[key] for op in loops[kind]["ops"]]
    return [r[key] for r in loops["serve"]["results"] if r["op"] == kind]


def end_to_end(workload, loops):
    """The 13 end-to-end metrics: every op type's latency, plus the
    process-level metrics of the named workload's loop; each with how
    it was taken and its wall-clock value."""
    kinds = ("lookup", "scan", "write") if workload == "serve" \
        else (workload,)
    starters = ("serve",) if workload == "serve" \
        else ("decide", "materialize")

    def per_s(key):
        ops = [t for kind in kinds for t in times(loops, kind, key)]
        return len(ops) / (sum(ops) / 1e3)

    def setup(key):
        return [s for loop in starters for s in loops[loop][key]]

    metrics = {
        "setup_s": (statistics.median(setup("setup_s")),
                    f"median of {len(setup('setup_s'))} cold starts, wall "
                    f"{statistics.median(setup('setup_wall_s')):.4f}"),
        "peak_rss_mb": (loops[workload]["rss_mb"], "max over processes"),
        "ops_per_s": (per_s("nominal_ms"),
                      f"ops / timed time, wall {per_s('ms'):.4f}"),
    }
    for kind in OP_TYPES:
        values, wall = times(loops, kind), times(loops, kind, "ms")
        pct, value, beyond = tail(values)
        n = len(values)
        metrics[f"{kind}_p50_ms"] = (
            statistics.median(values),
            f"p50 of n={n}, wall {statistics.median(wall):.4f}")
        metrics[f"{kind}_tail_ms"] = (
            value, f"p{pct:g} of n={n}, {beyond} beyond, wall "
            f"{tail(wall)[1]:.4f}")
    return metrics


PER_LAYER = (
    ("cli.import_s", "s"), ("cli.numpy_import_s", "s"),
    ("parser.program_ms", "ms"), ("parser.database_ms.materialize", "ms"),
    ("parser.database_ms.serve", "ms"), ("parser.render_ms.materialize", "ms"),
    ("parser.render_ms.scan", "ms"), ("classes.classify_ms", "ms"),
    ("termination.sl_ms", "ms"), ("termination.linear_ms", "ms"),
    ("termination.guarded_ms", "ms"), ("termination.types", "count"),
    ("termination.pattern_joins", "count"), ("chase.run_ms", "ms"),
    ("chase.steps", "count"), ("chase.facts_per_s", "1/s"),
    ("chase.extend_ms", "ms"), ("chase.new_facts", "count"),
    ("chase.new_steps", "count"), ("query.answer_ms.materialize", "ms"),
    ("query.answers.materialize", "count"), ("query.answer_ms.lookup", "ms"),
    ("query.answers.lookup", "count"), ("query.answer_ms.scan", "ms"),
    ("query.answers.scan", "count"), ("query.plan_ms", "ms"),
    ("query.plan_hit_ratio", "ratio"), ("storage.snapshot_ms", "ms"),
    ("storage.resident_facts", "count"),
    ("serve.service_ms.lookup", "ms"), ("serve.http_ms.lookup", "ms"),
    ("serve.service_ms.scan", "ms"), ("serve.http_ms.scan", "ms"),
    ("serve.service_ms.write", "ms"), ("serve.http_ms.write", "ms"),
    ("serve.non_200", "count"),
    ("trace.overhead_pct.decide", "%"),
    ("trace.overhead_pct.materialize", "%"),
    ("trace.overhead_pct.serve", "%"),
    ("host.slowdown", "ratio"), ("host.ref_loop_ms", "ms"),
    ("bench.gap_max", "ratio"),
)


def _med(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(traced, untraced, run: Run, gap_max):
    """Per-layer metrics from the traced loops; the tracing overhead
    compares their timed ops with the untraced loops of the same run.
    Span times are wall clock, not scaled to the nominal host speed."""
    decide = traced["decide"]["spans"]
    mat = traced["materialize"]["spans"]
    serve = traced["serve"]
    schedule_spans = []
    warmup = len(gen.SERVE_WARMUP)
    for segment in serve["segments"]:
        spans = segment["spans"]["ops"][warmup:]
        schedule_spans += list(zip(segment["results"], spans))
    by_kind = {kind: [(r, s) for r, s in schedule_spans if r["op"] == kind]
               for kind in ("lookup", "scan", "write")}
    lookups, scans, writes = (by_kind[k] for k in ("lookup", "scan", "write"))

    def used(spans, key):
        return [s[key] for s in spans if s.get(key)]

    chase_s = sum(s.get("chase.run_ms", 0.0) for s in mat) / 1e3
    plans = sum(s.get("query.plans", 0) for _, s in lookups)
    hits = sum(s.get("query.plan_hits", 0) for _, s in lookups)
    cold = traced["decide"]["import_s"] + traced["materialize"]["import_s"]
    cold_numpy = (traced["decide"]["numpy_import_s"]
                  + traced["materialize"]["numpy_import_s"])

    def overhead(kinds):
        t = sum(sum(times(traced, kind)) for kind in kinds)
        u = sum(sum(times(untraced, kind)) for kind in kinds)
        return (t / u - 1.0) * 100.0

    def service_ms(pairs):
        return _med(r["payload"].get("elapsed_s", 0.0) * 1e3
                    for r, _ in pairs)

    def http_ms(pairs):
        return _med(r["ms"] - r["payload"].get("elapsed_s", 0.0) * 1e3
                    for r, _ in pairs)

    values = {
        "cli.import_s": _med(cold),
        "cli.numpy_import_s": _med(cold_numpy),
        "parser.program_ms": _med(s.get("parser.program_ms", 0.0)
                                  for s in decide),
        "parser.database_ms.materialize": _med(
            s.get("parser.database_ms", 0.0) for s in mat),
        "parser.database_ms.serve": _med(
            seg["spans"]["outside"].get("parser.database_ms", 0.0)
            for seg in serve["segments"]),
        "parser.render_ms.materialize": _med(
            s.get("parser.render_ms", 0.0) for s in mat),
        "parser.render_ms.scan": _med(s.get("parser.render_ms", 0.0)
                                      for _, s in scans),
        "classes.classify_ms": _med(s.get("classes.classify_ms", 0.0)
                                    for s in decide),
        "termination.sl_ms": _med(used(decide, "termination.sl_ms")),
        "termination.linear_ms": _med(used(decide, "termination.linear_ms")),
        "termination.guarded_ms": _med(
            used(decide, "termination.guarded_ms")),
        "termination.types": _mean(used(decide, "termination.types")),
        "termination.pattern_joins": _mean(
            used(decide, "termination.pattern_joins")),
        "chase.run_ms": _med(s.get("chase.run_ms", 0.0) for s in mat),
        "chase.steps": _mean(s.get("chase.steps", 0.0) for s in mat),
        "chase.facts_per_s": (sum(s.get("chase.facts", 0.0) for s in mat)
                              / chase_s if chase_s else 0.0),
        "chase.extend_ms": _med(s.get("chase.extend_ms", 0.0)
                                for _, s in writes),
        "chase.new_facts": _mean(r["payload"].get("new_facts", 0)
                                 for r, _ in writes),
        "chase.new_steps": _mean(r["payload"].get("new_steps", 0)
                                 for r, _ in writes),
        "query.answer_ms.materialize": _med(s.get("query.answer_ms", 0.0)
                                            for s in mat),
        "query.answers.materialize": _mean(s.get("query.answers", 0.0)
                                           for s in mat),
        "query.answer_ms.lookup": _med(s.get("query.answer_ms", 0.0)
                                       for _, s in lookups),
        "query.answers.lookup": _mean(s.get("query.answers", 0.0)
                                      for _, s in lookups),
        "query.answer_ms.scan": _med(s.get("query.answer_ms", 0.0)
                                     for _, s in scans),
        "query.answers.scan": _mean(s.get("query.answers", 0.0)
                                    for _, s in scans),
        "query.plan_ms": _mean(s.get("query.plan_ms", 0.0)
                               for _, s in lookups),
        "query.plan_hit_ratio": hits / (hits + plans) if hits + plans else 0.0,
        "storage.snapshot_ms": _med(s.get("storage.snapshot_ms", 0.0)
                                    for _, s in writes),
        "storage.resident_facts": _mean(
            max((r["payload"].get("watermark", 0) for r in seg["results"]
                 if r["op"] == "write"), default=0)
            for seg in serve["segments"]),
        "serve.service_ms.lookup": service_ms(lookups),
        "serve.http_ms.lookup": http_ms(lookups),
        "serve.service_ms.scan": service_ms(scans),
        "serve.http_ms.scan": http_ms(scans),
        "serve.service_ms.write": service_ms(writes),
        "serve.http_ms.write": http_ms(writes),
        "serve.non_200": float(sum(
            1 for r in traced["serve"]["results"] + untraced["serve"]["results"]
            if r["status"] != 200)),
        "trace.overhead_pct.decide": overhead(("decide",)),
        "trace.overhead_pct.materialize": overhead(("materialize",)),
        "trace.overhead_pct.serve": overhead(("lookup", "scan", "write")),
        "host.slowdown": _mean(run.ref_ms) / min(run.ref_ms),
        "host.ref_loop_ms": _med(run.ref_ms),
        "bench.gap_max": gap_max,
    }
    return values


def gaps(loops):
    """``(op type, percentile, gap)`` of every op type's cost at its
    p50 and at its tail."""
    return [(kind, pct, gap(values, pct))
            for kind, values in ((k, times(loops, k)) for k in OP_TYPES)
            for pct in (50.0, tail(values)[0])]


# -- main ---------------------------------------------------------------------


def same_outputs(first, second):
    """Ops whose traced run answered differently from the untraced one
    (tracing must not change what the program does).  A verdict is its
    exit code and first line; certificates print sets in hash order,
    which differs between processes."""

    def answer(loop, op):
        if loop == "decide":
            return op["code"], op["out"].split("\n", 1)[0]
        return op["code"], sorted(verify.answer_lines(op["out"]))

    return [f"{a['id']}: traced output differs"
            for loop in ("decide", "materialize")
            for a, b in zip(first[loop]["ops"], second[loop]["ops"])
            if answer(loop, a) != answer(loop, b)]


def header(args):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (f"# perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} "
            f"python={platform.python_version()} numpy={numpy_version} "
            f"nproc={len(os.sched_getaffinity(0))}")


def measure(run: Run, args):
    """All passes and checks of one run: ``(loops, traced, attempted,
    failures)``."""
    manifest = gen.write_inputs(args.seed, run.inputs,
                                scale=args.seconds / 10.0)
    loops = run_pass(run, manifest, trace=False)
    if args.plant:
        plant_wrong_answers(loops)
    failures = check_run(run, manifest, loops)
    attempted = (len(loops["decide"]["ops"]) + len(loops["materialize"]["ops"])
                 + len(loops["serve"]["results"]))
    traced = None
    if args.trace:
        traced = run_pass(run, manifest, trace=True)
        failures += (serve_errors(run, manifest, traced)
                     + same_outputs(loops, traced))
        attempted *= 2
    return loops, traced, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=LOOPS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one result of each loop before it "
                             "is checked (the smoke test's wrong answers)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(root, "src"))  # for the checks
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    # A fresh directory even if an interrupted run left one behind
    # under the same process id.
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    run = Run(root, workdir)

    def terminated(signum, frame):
        raise BenchError(f"stopped by signal {signum}")

    # A SIGTERM still stops every child and removes the scratch files.
    signal.signal(signal.SIGTERM, terminated)
    try:
        loops, traced, attempted, failures = measure(run, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(base)

    print(header(args))
    for message in failures[:20]:
        print(f"# FAILED: {message}")
        print(f"perfbench: FAILED: {message}", file=sys.stderr)
    print(f"# host: reference loop median {_med(run.ref_ms):.2f} ms, "
          f"slowdown mean/fastest {_mean(run.ref_ms) / min(run.ref_ms):.3f} "
          f"over {len(run.ref_ms)} samples")
    if traced is None:
        metrics = end_to_end(args.workload, loops)
        for name, unit in END_TO_END:
            value, how = metrics[name]
            print(f"{name:<22} {value:>12.4f} {unit:<4} {how}")
        out = {name: {"value": metrics[name][0], "unit": unit}
               for name, unit in END_TO_END}
    else:
        found = gaps(traced)
        for kind, pct, step in found:
            flag = "GAP" if step > GAP_LIMIT else "gap"
            print(f"# {flag} {kind} p{pct:g}: widest relative step "
                  f"{step:.3f} (limit {GAP_LIMIT:g})")
        values = per_layer(traced, loops, run,
                           max(step for _, _, step in found))
        for name, unit in PER_LAYER:
            print(f"{name:<32} {values[name]:>14.4f} {unit}")
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
