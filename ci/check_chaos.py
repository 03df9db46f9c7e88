#!/usr/bin/env python
"""CI service-chaos check: crash-recoverable ingest over HTTP.

Drives ``repro serve --db`` as a real subprocess and kills it at the
worst moments the write-ahead ingest journal exists to survive:

* **crash_ingest** — a deterministic ``os._exit`` after the WAL fsync
  and before the chase leg (the fault-injected version of ``kill -9``
  mid-ingest).  The restarted server must *replay* the journaled
  delta, answer a retried ``ingest_id`` with ``"replayed": true``, and
  yield certain answers byte-identical to an in-process from-scratch
  chase of the unioned database.
* **torn_write** — the journal append writes half its record and the
  process dies; the restart must truncate the torn tail and the retry
  must apply the delta cleanly (as a fresh ingest, not a replay).
* **SIGKILL under slow_accept** — a literal ``kill -9`` landing while
  an admitted ingest is still parked before the WAL write; nothing is
  journaled, so the retry after restart applies the delta exactly
  once.

Every leg finishes with SIGTERM and requires a clean exit 0.

Usage: PYTHONPATH=src python ci/check_chaos.py
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.chase import run_chase  # noqa: E402
from repro.chase.incremental import ChaseSession  # noqa: E402
from repro.parser import (  # noqa: E402
    parse_database,
    parse_fact,
    parse_program,
    parse_query,
)

PROGRAM = """\
e(X, Y) -> p(X, Y)
p(X, Y), e(Y, Z) -> p(X, Z)
p(X, Y) -> exists W . tag(Y, W)
"""

EDGES = 6
DELTA_1 = ["e(n6, n7)", "e(n7, n8)"]
DELTA_2 = ["e(n8, n9)"]
QUERY = "q(X, Y) :- p(X, Y)"

CRASH_EXIT = 42


def fail(message):
    print(f"check_chaos: FAIL — {message}")
    return 1


def base_facts():
    return [f"e(n{i}, n{i + 1})" for i in range(EDGES)]


def reference_answers(*deltas):
    """Certain answers of a from-scratch chase over the union — the
    ground truth every recovered server must reproduce byte-for-byte."""
    db = parse_database("\n".join(base_facts()))
    for delta in deltas:
        for text in delta:
            db.add(parse_fact(text))
    result = run_chase(db, parse_program(PROGRAM), "semi_oblivious",
                       max_steps=100_000)
    if not result.terminated:
        raise RuntimeError("reference chase did not terminate")
    return sorted(
        "q(" + ", ".join(str(t) for t in row) + ")"
        for row in parse_query(QUERY).certain_answers(result.instance)
    )


def seed_store(path):
    """A checkpointed semi-oblivious store over the base facts."""
    db = parse_database("\n".join(base_facts()))
    session = ChaseSession.start(
        db, parse_program(PROGRAM), variant="semi_oblivious",
        max_steps=100_000, save=path,
    )
    try:
        if not session.terminated:
            raise RuntimeError("seed chase did not terminate")
    finally:
        session.close()


def child_env(faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "src"),
            env.get("PYTHONPATH"),
        ) if p
    )
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def start_server(store, faults=None):
    """Launch ``repro serve --db`` and return (process, port)."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--db", store,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=child_env(faults),
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = server.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited during startup (code {server.wait()})"
            )
        if line.startswith("% serving on "):
            return server, int(line.rsplit(":", 1)[1])
    raise RuntimeError("never saw the '% serving on' line")


def request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, data
    finally:
        conn.close()


def expect_connection_death(port, body):
    """POST /facts and require the server to die mid-request."""
    try:
        status, data = request(port, "POST", "/facts", body, timeout=60)
    except (ConnectionError, http.client.HTTPException, OSError):
        return None
    return f"expected the server to crash, got {status}: {data}"


def shutdown_clean(server):
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=60)
    server.stdout.close()
    if code != 0:
        return f"SIGTERM shutdown exited {code}, expected 0"
    return None


def reap(server, expected_code):
    code = server.wait(timeout=60)
    server.stdout.close()
    if code != expected_code:
        return f"crashed server exited {code}, expected {expected_code}"
    return None


def certain(port):
    status, out = request(port, "POST", "/query",
                          {"query": QUERY, "certain": True})
    if status != 200:
        raise RuntimeError(f"/query returned {status}: {out}")
    return sorted(out["answers"])


def crash_ingest_leg(expected):
    """kill -9 (via fault injection) between WAL fsync and the chase;
    restart, replay, retry, verify byte-identical answers."""
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        seed_store(store)

        server, port = start_server(store, faults="crash_ingest:1")
        error = expect_connection_death(
            port, {"facts": DELTA_1, "ingest_id": "d1"})
        if error:
            server.kill()
            server.wait()
            return error
        error = reap(server, CRASH_EXIT)
        if error:
            return error

        server, port = start_server(store)
        try:
            status, health = request(port, "GET", "/health")
            if status != 200 or health.get("status") != "ok":
                return fail_text(f"post-recovery /health: {health}")
            # The journaled delta was replayed at startup, so the
            # retried ingest_id must dedupe to the recorded response.
            status, retry = request(
                port, "POST", "/facts",
                {"facts": DELTA_1, "ingest_id": "d1"})
            if status != 200 or retry.get("replayed") is not True:
                return fail_text(
                    f"retried d1 was not replayed ({status}): {retry}")
            status, second = request(
                port, "POST", "/facts",
                {"facts": DELTA_2, "ingest_id": "d2"})
            if status != 200 or second.get("replayed"):
                return fail_text(
                    f"fresh d2 ingest misbehaved ({status}): {second}")
            got = certain(port)
            if got != expected:
                return fail_text(
                    f"recovered answers diverge: "
                    f"{got} != {expected}")
            error = shutdown_clean(server)
            if error:
                return error
            server = None
        finally:
            if server is not None and server.poll() is None:
                server.kill()
                server.wait()
    return None


def torn_write_leg(expected):
    """Half a journal record reaches disk, then the process dies; the
    restart truncates the torn tail and the retry applies cleanly."""
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        seed_store(store)

        server, port = start_server(store, faults="torn_write")
        error = expect_connection_death(
            port, {"facts": DELTA_1, "ingest_id": "d1"})
        if error:
            server.kill()
            server.wait()
            return error
        error = reap(server, CRASH_EXIT)
        if error:
            return error

        server, port = start_server(store)
        try:
            # Nothing durable was acknowledged: the retry is a *fresh*
            # ingest (no replay), applied exactly once.
            status, retry = request(
                port, "POST", "/facts",
                {"facts": DELTA_1, "ingest_id": "d1"})
            if status != 200:
                return fail_text(f"retry after torn write: {retry}")
            if retry.get("replayed"):
                return fail_text(
                    f"torn delta must not replay (it never committed): "
                    f"{retry}")
            got = certain(port)
            if got != expected:
                return fail_text(
                    f"[torn_write] answers diverge: {got} != {expected}")
            error = shutdown_clean(server)
            if error:
                return error
            server = None
        finally:
            if server is not None and server.poll() is None:
                server.kill()
                server.wait()
    return None


def sigkill_leg(expected):
    """A literal kill -9 while the admitted ingest is still parked in
    slow_accept (before the WAL write): nothing journaled, the retry
    applies the delta exactly once."""
    import threading

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        seed_store(store)

        server, port = start_server(store, faults="slow_accept:30")
        outcome = {}

        def post():
            outcome["error"] = expect_connection_death(
                port, {"facts": DELTA_1, "ingest_id": "d1"})

        poster = threading.Thread(target=post, daemon=True)
        poster.start()
        time.sleep(1.0)  # let the request get admitted and parked
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=60)
        server.stdout.close()
        poster.join(timeout=60)
        if outcome.get("error"):
            return outcome["error"]

        server, port = start_server(store)
        try:
            status, retry = request(
                port, "POST", "/facts",
                {"facts": DELTA_1, "ingest_id": "d1"})
            if status != 200 or retry.get("replayed"):
                return fail_text(
                    f"retry after SIGKILL misbehaved ({status}): {retry}")
            got = certain(port)
            if got != expected:
                return fail_text(
                    f"[sigkill] answers diverge: {got} != {expected}")
            error = shutdown_clean(server)
            if error:
                return error
            server = None
        finally:
            if server is not None and server.poll() is None:
                server.kill()
                server.wait()
    return None


def fail_text(message):
    return message


def run() -> int:
    expected_full = reference_answers(DELTA_1, DELTA_2)
    expected_d1 = reference_answers(DELTA_1)

    error = crash_ingest_leg(expected_full)
    if error:
        return fail(f"[crash_ingest] {error}")
    print(f"check_chaos: crash_ingest ok "
          f"({len(expected_full)} certain answers, byte-identical)")

    error = torn_write_leg(expected_d1)
    if error:
        return fail(f"[torn_write] {error}")
    print("check_chaos: torn_write ok (tail truncated, retry applied)")

    error = sigkill_leg(expected_d1)
    if error:
        return fail(f"[sigkill] {error}")
    print("check_chaos: sigkill ok (unjournaled request retried cleanly)")

    print(
        "check_chaos: ok — journal replay byte-identical, torn tail "
        "truncated, SIGKILL retry idempotent, clean SIGTERM shutdowns"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
