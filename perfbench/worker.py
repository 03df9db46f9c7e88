"""Worker processes of the benchmark.

``ops``: one cold interpreter that imports ``repro.cli``, prints
``ready``, then runs ``repro check`` or ``repro query`` commands
in-process through ``repro.cli.main`` with stdout captured, one per
JSON request line on stdin, answering each with one JSON line on
stdout.  A full ``gc.collect()`` precedes every op (outside its
timing), so no op pays for garbage left by the one before.  An empty
line ends the session; the worker then reports its peak RSS, import
times and spans.

``check``: the correctness checks of :mod:`verify` over the outputs
of finished ops; they run after every timed op of the run.

``serve``: ``repro serve`` with the per-layer spans of
:mod:`spans` installed; the spans are written to ``--spans`` when the
server shuts down.  Untraced runs start the server as users do, with
``python3 -m repro serve``, and never use this entry.

    python3 perfbench/worker.py ops --loop decide|materialize --inputs DIR
        [--trace]
    python3 perfbench/worker.py check --chunk FILE --out FILE
    python3 perfbench/worker.py serve --spans FILE -- SERVE-ARGS...
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
from time import perf_counter


def _import_cli(trace: bool) -> dict:
    """Import ``repro.cli`` cold; with tracing, time NumPy's share by
    importing it first (``repro.cli`` imports it either way)."""
    start = perf_counter()
    numpy_s = 0.0
    if trace:
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
        numpy_s = perf_counter() - start
    import repro.cli  # noqa: F401

    return {"import_s": perf_counter() - start, "numpy_import_s": numpy_s}


def _argv(loop: str, op: dict, inputs: str) -> list:
    if loop == "decide":
        return ["check", os.path.join(inputs, op["rules"])]
    return ["query", os.path.join(inputs, op["rules"]),
            os.path.join(inputs, op["db"]), op["query"]]


def peak_rss_mb(pid="self") -> float:
    """A process's own peak resident set size (``VmHWM``).  Unlike
    ``ru_maxrss``, it does not include the parent's resident set that a
    child inherits at fork, which is larger than a worker's own."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _read(inputs: str, rel: str) -> str:
    with open(os.path.join(inputs, rel), encoding="ascii") as handle:
        return handle.read()


def run_ops(loop: str, inputs: str, trace: bool) -> dict:
    timing = _import_cli(trace)
    print("ready", flush=True)
    import repro.cli as cli

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    for line in sys.stdin:
        if not line.strip():
            break
        op = json.loads(line)
        argv = _argv(loop, op, inputs)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if recorder is not None:
            recorder.begin(id=op["id"])
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed_ms = (perf_counter() - start) * 1e3
        if recorder is not None:
            recorder.end()
        print(json.dumps({"id": op["id"], "ms": elapsed_ms, "code": code,
                          "out": out.getvalue()}), flush=True)
    return dict(timing, maxrss_mb=peak_rss_mb(),
                spans=recorder.ops if recorder is not None else [])


def run_checks(chunk: dict) -> list:
    """One error (or ``None``) per checked op result."""
    import verify

    inputs = chunk["inputs"]
    errors = []
    for item in chunk["items"]:
        op, result = item["op"], item["result"]
        rules = _read(inputs, op["rules"])
        if item["loop"] == "decide":
            errors.append(verify.check_decide(op, rules, result["code"]))
        else:
            errors.append(verify.check_materialize(
                op, rules, _read(inputs, op["db"]), result["code"],
                result["out"]))
    return errors


def run_traced_server(spans_path: str, argv: list) -> int:
    import spans
    import repro.cli as cli

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"ops": recorder.ops, "outside": recorder.outside},
                      handle)


def main() -> int:
    parser = argparse.ArgumentParser(description="perfbench worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    ops = sub.add_parser("ops")
    ops.add_argument("--loop", choices=("decide", "materialize"),
                     required=True)
    ops.add_argument("--inputs", required=True)
    ops.add_argument("--trace", action="store_true")
    check = sub.add_parser("check")
    check.add_argument("--chunk", required=True)
    check.add_argument("--out", required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--spans", required=True)
    serve.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "serve":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_traced_server(args.spans, argv)
    if args.mode == "ops":
        print(json.dumps(run_ops(args.loop, args.inputs, args.trace)),
              flush=True)
        return 0
    with open(args.chunk, encoding="utf-8") as handle:
        chunk = json.load(handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(run_checks(chunk), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
