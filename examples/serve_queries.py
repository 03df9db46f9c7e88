#!/usr/bin/env python
"""Chase-as-a-service: start a server, query it, ingest a delta.

Walks the full `repro.serve` loop in one process:

1. chase a small org database to a universal model and keep it
   *resident* in a :class:`repro.chase.incremental.ChaseSession`;
2. serve it over HTTP on a background thread
   (:class:`repro.serve.BackgroundServer`) and fire concurrent
   certain-answer queries plus an entailment probe at it;
3. ``POST /facts`` a delta of new base facts — the server resumes the
   chase **from the delta only** (incremental maintenance, never a
   re-chase) — and watch the watermark advance and new answers appear,
   while a reader pinned to the old snapshot keeps its consistent
   view.

Everything is stdlib: the client below is plain ``http.client``.

Run:  PYTHONPATH=src python examples/serve_queries.py
"""

import http.client
import json
import threading

from repro.chase.incremental import ChaseSession
from repro.parser import parse_database, parse_program
from repro.serve import BackgroundServer, ChaseService

RULES = parse_program(
    """
    % every department an employee works in has some manager
    emp(X, D) -> exists M . mgr(D, M)
    % employees report to their department's manager, transitively
    mgr(D, M), emp(E, D) -> rep(E, M)
    rep(E, M), rep(M, T) -> rep(E, T)
    % two employees with a common manager are peers
    rep(E, M), rep(F, M) -> peer(E, F)
    """
)

DATABASE = parse_database(
    """
    emp(ann, sales)
    emp(bob, sales)
    """
)


def call(port, method, path, body=None):
    """One JSON request against the server; returns (status, payload)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def main() -> None:
    # 1. Chase once; the session stays resident and extendable.
    session = ChaseSession.start(DATABASE, RULES, variant="semi_oblivious")
    assert session.terminated

    service = ChaseService(session, request_timeout_s=30.0)

    # 2. Serve on a daemon thread; port 0 = pick a free port.
    with BackgroundServer(service, port=0) as server:
        _, port = server.address
        print(f"serving on http://127.0.0.1:{port}")

        # Concurrent readers: each request pins a consistent snapshot.
        def ask(query, out, certain=True):
            status, payload = call(port, "POST", "/query",
                                   {"query": query, "certain": certain})
            assert status == 200, payload
            out.append(payload)

        results = []
        threads = [
            threading.Thread(
                target=ask, args=("q(E, F) :- peer(E, F)", results)
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        before = results[0]
        print(f"peers at watermark {before['watermark']}: "
              f"{sorted(before['answers'])}")

        status, verdict = call(port, "POST", "/entail",
                               {"atom": "emp(ann, sales)"})
        print(f"entailed {verdict['atom']}? {verdict['entailed']}")

        # 3. Ingest a delta: the chase resumes from these two facts
        # only — the ingest leg's step count covers just their
        # consequences, and a fresh snapshot is published atomically.
        status, ingested = call(port, "POST", "/facts", {
            "facts": ["emp(cam, ops)", "emp(dee, ops)"],
        })
        assert status == 200, ingested
        print(f"delta added {ingested['new_facts']} facts "
              f"(2 base + their consequences) in "
              f"{ingested['new_steps']} incremental chase steps, "
              f"watermark {before['watermark']} -> "
              f"{ingested['watermark']}, "
              f"terminated={ingested['terminated']}")

        status, after = call(port, "POST", "/query",
                             {"query": "q(E, F) :- peer(E, F)",
                              "certain": True})
        new = sorted(set(after["answers"]) - set(before["answers"]))
        print(f"peers at watermark {after['watermark']}: "
              f"+{len(new)} new: {new}")

        status, stats = call(port, "GET", "/stats")
        print(f"served {stats['queries']} queries, "
              f"{stats['ingests']} ingest legs, "
              f"{stats['facts']} facts resident")

    service.close()
    print("server drained, session closed")


if __name__ == "__main__":
    main()
