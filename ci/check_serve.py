#!/usr/bin/env python
"""CI query-server smoke: incremental maintenance over HTTP.

Starts ``repro serve`` as a real subprocess on an ephemeral port (the
exact surface a deployment hits), ingests a delta through ``POST
/facts``, and requires the incrementally maintained naive and certain
answers to equal a from-scratch chase of the unioned database computed
in-process — the server must *extend* the resident chase from the
delta frontier, never re-chase.  The reference renders answers with
``repro.parser.atom_to_text``, and the delta carries a constant that
needs quotes, so the server's renderer is checked too.  Finishes with
SIGTERM and requires a clean exit 0 (the server installs signal
handlers for graceful drain).

Usage: PYTHONPATH=src python ci/check_serve.py
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
from repro.model import Atom, Predicate  # noqa: E402
from repro.parser import (  # noqa: E402
    atom_to_text,
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

EDGES = 8
DELTA = ["e(n8, n9)", "e(n9, n10)", "e(n9, 'Big City')"]
QUERY = "q(X, Y) :- p(X, Y)"


def fail(message):
    print(f"check_serve: FAIL — {message}")
    return 1


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, data
    finally:
        conn.close()


def from_scratch_answers():
    db = parse_database(
        "\n".join(f"e(n{i}, n{i + 1})" for i in range(EDGES))
    )
    for text in DELTA:
        db.add(parse_fact(text))
    result = run_chase(db, parse_program(PROGRAM), "semi_oblivious",
                       max_steps=100_000)
    if not result.terminated:
        raise RuntimeError("reference chase did not terminate")
    query = parse_query(QUERY)
    predicate = Predicate(query.name, len(query.answer_variables))

    def render(rows):
        return [atom_to_text(Atom(predicate, row)) for row in rows]

    # Certain answers come back in certain_answers' order; the naive
    # order follows the chase's history, so it is compared as a set.
    return {
        "certain": render(query.certain_answers(result.instance)),
        "naive": sorted(render(query.answers(result.instance))),
    }


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rules_path = os.path.join(tmp, "rules.tgd")
        db_path = os.path.join(tmp, "db.facts")
        with open(rules_path, "w") as handle:
            handle.write(PROGRAM)
        with open(db_path, "w") as handle:
            handle.write("\n".join(
                f"e(n{i}, n{i + 1})" for i in range(EDGES)
            ) + "\n")

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", rules_path, db_path,
             "--variant", "so", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            # The CLI prints "% serving on http://host:port" (flushed)
            # once the resident chase is at fixpoint and the socket is
            # bound — the contract scripted clients key on.
            port = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = server.stdout.readline()
                if not line:
                    return fail(
                        f"server exited during startup "
                        f"(code {server.wait()})"
                    )
                if line.startswith("% serving on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            if port is None:
                return fail("never saw the '% serving on' line")

            status, health = request(port, "GET", "/health")
            if status != 200 or health.get("ok") is not True:
                return fail(f"/health returned {status}: {health}")

            status, before = request(port, "POST", "/query",
                                     {"query": QUERY, "certain": True})
            if status != 200:
                return fail(f"pre-delta /query returned {status}: {before}")

            status, ingest = request(port, "POST", "/facts",
                                     {"facts": DELTA})
            if status != 200:
                return fail(f"/facts returned {status}: {ingest}")
            if not ingest.get("terminated"):
                return fail(f"ingest leg did not reach fixpoint: {ingest}")
            if ingest.get("new_steps", 0) <= 0:
                return fail("ingest fired no chase steps for a real delta")

            status, after = request(port, "POST", "/query",
                                    {"query": QUERY, "certain": True})
            if status != 200:
                return fail(f"post-delta /query returned {status}: {after}")
            if after["watermark"] <= before["watermark"]:
                return fail(
                    f"watermark did not advance across the ingest "
                    f"({before['watermark']} -> {after['watermark']})"
                )

            status, naive = request(port, "POST", "/query",
                                    {"query": QUERY})
            if status != 200:
                return fail(f"post-delta naive /query returned {status}: "
                            f"{naive}")

            expected = from_scratch_answers()
            for kind, got in (("certain", after["answers"]),
                              ("naive", sorted(naive["answers"]))):
                if got != expected[kind]:
                    return fail(
                        f"incrementally maintained {kind} answers diverge "
                        f"from the from-scratch chase: {got} != "
                        f"{expected[kind]}"
                    )
            if not any("'Big City'" in line for line in after["answers"]):
                return fail("no answer carries the quoted delta constant")
            if len(after["answers"]) <= len(before["answers"]):
                return fail("the delta added no answers to lose")

            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=30)
            if code != 0:
                return fail(f"SIGTERM shutdown exited {code}, expected 0")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    print(
        f"check_serve: ok — {len(expected['certain'])} certain answers "
        f"after the delta, incremental == from-scratch (naive and "
        f"certain), clean SIGTERM shutdown"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
