"""The query server: snapshots, the service core, and the HTTP layer.

The load-bearing test is :func:`test_snapshot_isolation_under_writer`:
N reader threads query a resident while one writer ingests deltas, and
every answer set a reader observed must equal the answer set computed
*after quiescence* over a snapshot pinned to the same watermark — i.e.
readers never see a partially applied extension leg.
"""

import json
import threading

import pytest

from repro.chase import ChaseVariant, run_chase
from repro.chase.incremental import ChaseSession
from repro.model import Instance
from repro.model.instances import SnapshotInstance
from repro.parser import parse_database, parse_fact, parse_program, parse_query
from repro.serve import BackgroundServer, ChaseService, ServiceError

RULES = parse_program(
    """
    e(X, Y) -> p(X, Y)
    p(X, Y), e(Y, Z) -> p(X, Z)
    p(X, Y) -> exists W . tag(Y, W)
    """
)

BASE = parse_database("e(n0, n1)\ne(n1, n2)")


def fresh_session(variant=ChaseVariant.SEMI_OBLIVIOUS):
    return ChaseSession.start(BASE, RULES, variant=variant)


# -- snapshots ---------------------------------------------------------------


def test_snapshot_is_a_bounded_consistent_view():
    session = fresh_session()
    try:
        snap = session.snapshot()
        assert isinstance(snap, SnapshotInstance)
        full = list(session.instance.facts())
        assert list(snap.facts()) == full
        assert len(snap) == session.watermark
        # A snapshot pinned below the tip sees exactly the log prefix.
        half = session.instance.snapshot(watermark=3)
        assert list(half.facts()) == full[:3]
        assert len(half) == 3
        assert full[0] in half
        assert full[-1] not in half
    finally:
        session.close()


def test_snapshot_stays_pinned_while_base_grows():
    session = fresh_session()
    try:
        snap = session.snapshot()
        before = list(snap.facts())
        query = parse_query("q(X, Y) :- p(X, Y)")
        answers_before = sorted(query.answers(snap))
        session.extend([parse_fact("e(n2, n3)")])
        assert list(snap.facts()) == before
        assert sorted(query.answers(snap)) == answers_before
        assert session.snapshot().watermark > snap.watermark
    finally:
        session.close()


def test_snapshot_is_read_only_and_never_interns():
    session = fresh_session()
    try:
        snap = session.snapshot()
        with pytest.raises(TypeError):
            snap.add(parse_fact("e(x, y)"))
        with pytest.raises(TypeError):
            snap.save("nowhere")
        symbols_before = len(session.instance.store.symbols)
        query = parse_query("q(X) :- e(X, unseen_constant_zz)")
        assert list(query.answers(snap)) == []
        assert parse_fact("zz_pred(zz_arg)") not in snap
        assert len(session.instance.store.symbols) == symbols_before
    finally:
        session.close()


def test_snapshot_copy_materializes_an_independent_instance():
    session = fresh_session()
    try:
        half = session.instance.snapshot(watermark=3)
        copy = half.copy()
        assert isinstance(copy, Instance)
        assert not isinstance(copy, SnapshotInstance)
        assert list(copy.facts()) == list(half.facts())
        copy.add(parse_fact("e(zz, ww)"))
        assert len(copy) == 4
        assert len(half) == 3
    finally:
        session.close()


# -- the service core --------------------------------------------------------


def test_service_query_entail_ingest_status():
    session = fresh_session()
    service = ChaseService(session)
    try:
        out = service.query("q(X, Y) :- p(X, Y)")
        assert "resident" not in out
        assert out["count"] == len(out["answers"]) == 3
        assert out["watermark"] == session.watermark

        out = service.query("p(n0, n2)")
        assert out["boolean"] is True

        out = service.entail("p(n0, n2)")
        assert out["entailed"] is True
        out = service.entail("p(n2, n0)")
        assert out["entailed"] is False

        before = session.watermark
        out = service.ingest("e(n2, n3)\ne(n3, n4)")
        assert out["terminated"] is True
        assert out["new_facts"] > 2  # the delta plus its consequences
        assert out["watermark"] == session.watermark > before

        out = service.query("q(X) :- p(X, n4)", certain=True)
        assert out["certain"] is True
        assert out["count"] == 4

        status = service.status()
        assert status["queries"] == 5
        assert status["ingests"] == 1
        assert status["terminated"] is True
    finally:
        service.close()


def test_service_error_statuses():
    session = fresh_session()
    service = ChaseService(session)
    try:
        with pytest.raises(ServiceError) as err:
            service.query("q(X :- broken")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            service.entail("p(X, n1)")  # not ground
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            service.ingest("")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            service.query("q(X) :- p(X, Y)", timeout_s=-1)
        assert err.value.status == 400
    finally:
        service.close()


def test_service_readonly_resident_rejects_ingest():
    instance = Instance(parse_database("p(a, b)"))
    service = ChaseService(instance)
    out = service.query("q(X) :- p(X, Y)")
    assert out["count"] == 1
    with pytest.raises(ServiceError) as err:
        service.ingest("p(c, d)")
    assert err.value.status == 409
    service.close()


def test_service_request_budget_cap():
    service = ChaseService(
        Instance(parse_database("p(b, c)")), request_timeout_s=30.0
    )
    assert service.query("q(X) :- p(X, Y)")["count"] == 1
    # The per-request deadline is capped by the service-wide limit.
    budget = service.request_budget(timeout_s=10_000.0)
    assert budget.timeout_s == 30.0
    assert 0.0 < budget.remaining_s() <= 30.0
    service.close()


def test_service_shutdown_cancels_request_budgets():
    service = ChaseService(Instance(parse_database("p(a, b)")))
    budget = service.request_budget()
    service.shutdown()
    assert budget.check() == "cancelled"
    service.close()


# -- snapshot isolation under a concurrent writer ----------------------------


@pytest.mark.parametrize(
    "variant",
    (
        ChaseVariant.OBLIVIOUS,
        ChaseVariant.SEMI_OBLIVIOUS,
        ChaseVariant.RESTRICTED,
    ),
)
def test_snapshot_isolation_under_writer(variant):
    """Readers pinned to published snapshots never observe a partial
    extension leg: every (watermark, answers) pair a reader recorded
    must be reproducible after quiescence from a snapshot pinned to
    that same watermark, and each reader's watermarks are monotone.
    Under the restricted variant the writer's head checks read the
    resident instance while the readers query it."""
    session = fresh_session(variant)
    service = ChaseService(session)
    query_text = "q(X, Y) :- p(X, Y)"
    deltas = [f"e(n{i}, n{i + 1})" for i in range(2, 12)]
    observations = [[] for _ in range(3)]
    failures = []
    done = threading.Event()

    def reader(slot):
        try:
            while not done.is_set():
                out = service.query(query_text)
                observations[slot].append(
                    (out["watermark"], tuple(sorted(out["answers"])))
                )
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(3)
    ]
    for thread in threads:
        thread.start()
    try:
        for delta in deltas:
            service.ingest(delta)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not failures, failures

    # Quiesced ground truth, per watermark actually observed.
    query = parse_query(query_text)
    from repro.model import Atom, Predicate
    from repro.parser import atom_to_text

    def answers_at(watermark):
        snap = session.instance.snapshot(watermark=watermark)
        return tuple(
            sorted(
                atom_to_text(Atom(Predicate("q", len(row)), row))
                for row in query.answers(snap)
            )
        )

    expected = {}
    for trace in observations:
        watermarks = [w for w, _ in trace]
        assert watermarks == sorted(watermarks), "non-monotone watermarks"
        for watermark, answers in trace:
            if watermark not in expected:
                expected[watermark] = answers_at(watermark)
            assert answers == expected[watermark], (
                f"reader saw a partial round at watermark {watermark}"
            )
    # The final published snapshot is the full final instance.
    assert service.query(query_text)["watermark"] == len(session.instance)
    service.close()


def test_incremental_ingest_equals_from_scratch_service():
    """The CI smoke's assertion, in-process: after a sequence of
    ingests, the served answers equal a from-scratch chase of the
    union database."""
    session = fresh_session()
    service = ChaseService(session)
    deltas = ["e(n2, n3)", "e(n3, n4)", "e(n0, n5)"]
    for delta in deltas:
        service.ingest(delta)
    served = service.query("q(X, Y) :- p(X, Y)", certain=True)

    union = parse_database(
        "e(n0, n1)\ne(n1, n2)\n" + "\n".join(deltas)
    )
    scratch = run_chase(union, RULES, ChaseVariant.SEMI_OBLIVIOUS)
    assert scratch.terminated
    query = parse_query("q(X, Y) :- p(X, Y)")
    from repro.model import Atom, Predicate
    from repro.parser import atom_to_text

    expected = sorted(
        atom_to_text(Atom(Predicate("q", len(row)), row))
        for row in query.certain_answers(scratch.instance)
    )
    assert sorted(served["answers"]) == expected
    service.close()


# -- HTTP --------------------------------------------------------------------


def _request(host, port, method, path, payload=None):
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    out = json.loads(response.read())
    conn.close()
    return response.status, out


def test_http_end_to_end():
    session = fresh_session()
    service = ChaseService(session)
    with BackgroundServer(service) as background:
        host, port = background.address
        assert port != 0  # ephemeral port resolved

        status, out = _request(host, port, "GET", "/health")
        assert status == 200 and out["ok"] is True

        status, out = _request(host, port, "GET", "/stats")
        assert status == 200
        assert out["facts"] == session.watermark

        status, out = _request(
            host, port, "POST", "/query",
            {"query": "q(X, Y) :- p(X, Y)"},
        )
        assert status == 200 and out["count"] == 3
        # No field selects a join order, a resident or a kernel; a
        # body that still sends one is answered as if it were absent.
        for field in ("policy", "resident", "kernel"):
            status, ignored = _request(
                host, port, "POST", "/query",
                {"query": "q(X, Y) :- p(X, Y)", field: "bogus"},
            )
            assert status == 200 and ignored["answers"] == out["answers"]

        status, out = _request(
            host, port, "POST", "/entail", {"atom": "p(n0, n2)"}
        )
        assert status == 200 and out["entailed"] is True
        status, ignored = _request(
            host, port, "POST", "/entail",
            {"atom": "p(n0, n2)", "resident": "bogus"},
        )
        assert status == 200 and ignored == out

        status, out = _request(
            host, port, "POST", "/facts", {"facts": "e(n2, n3)"}
        )
        assert status == 200 and out["terminated"] is True

        status, out = _request(
            host, port, "POST", "/query",
            {"query": "q(X) :- p(X, n3)", "certain": True},
        )
        assert status == 200 and out["count"] == 3

        # Error mapping.
        status, _ = _request(host, port, "GET", "/nope")
        assert status == 404
        status, _ = _request(host, port, "GET", "/query")
        assert status == 405
        status, _ = _request(host, port, "POST", "/query", {"nope": 1})
        assert status == 400
        status, _ = _request(
            host, port, "POST", "/query", {"query": "q(X :- bad"}
        )
        assert status == 400
        status, _ = _request(host, port, "POST", "/facts", {"facts": 7})
        assert status == 400
    # Clean shutdown: the thread joined and the socket is closed.
    import socket

    with pytest.raises(OSError):
        probe = socket.create_connection((host, port), timeout=2)
        probe.close()
    service.close()


def _raw_query(host, port, lengths):
    """POST a valid ``/query`` body over a raw socket with one
    ``Content-Length`` header per entry of ``lengths`` (``None`` stands
    for the body's true length); returns ``(status, payload)``."""
    import socket

    body = json.dumps({"query": "q(X, Y) :- p(X, Y)"}).encode()
    headers = "".join(
        f"Content-Length: {len(body) if n is None else n}\r\n"
        for n in lengths
    )
    request = f"POST /query HTTP/1.1\r\nHost: test\r\n{headers}\r\n"
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def test_http_refuses_malformed_and_conflicting_content_length():
    session = fresh_session()
    service = ChaseService(session)
    with BackgroundServer(service) as background:
        host, port = background.address
        status, ok = _raw_query(host, port, [None])
        assert status == 200 and ok["count"] == 3
        # Identical duplicates frame the body the same way.
        status, twice = _raw_query(host, port, [None, None])
        assert status == 200 and twice["answers"] == ok["answers"]
        n = len(json.dumps({"query": "q(X, Y) :- p(X, Y)"}))
        for lengths, error in [
            ([-1], "bad Content-Length"),
            ([f"+{n}"], "bad Content-Length"),
            ([f"{n // 10}_{n % 10}"], "bad Content-Length"),
            ([None, 0], "conflicting Content-Length headers"),
            ([0, None], "conflicting Content-Length headers"),
            ([None, -1], "bad Content-Length"),
        ]:
            status, out = _raw_query(host, port, lengths)
            assert (status, out["error"]) == (400, error), lengths
    service.close()


def test_http_rejects_fields_of_the_wrong_json_type(tmp_path):
    # "false" is truthy and true is an int in Python; neither may be
    # read as the JSON type the field documents.
    store = tmp_path / "store"
    session = ChaseSession.start(
        parse_database("emp(ann, hr)\nemp(bob, it)"),
        parse_program("emp(X, D) -> exists K . works(X, K)"),
        save=str(store),
    )
    service = ChaseService(session)
    query = "q(X, K) :- works(X, K)"
    header = store / "chase.pkl"
    before = (session.watermark, session.step_count, header.read_bytes())
    with BackgroundServer(service) as background:
        host, port = background.address
        for path, body, field in [
            ("/query", {"query": query, "certain": "false"}, "certain"),
            ("/query", {"query": query, "certain": None}, "certain"),
            ("/query", {"query": query, "timeout_s": True}, "timeout_s"),
            ("/query", {"query": query, "timeout_s": "5"}, "timeout_s"),
            ("/entail", {"atom": "emp(ann, hr)", "timeout_s": True},
             "timeout_s"),
            ("/facts", {"facts": ["emp(cy, hr)"], "max_steps": True},
             "max_steps"),
            ("/facts", {"facts": ["emp(cy, hr)"], "max_steps": 2.0},
             "max_steps"),
            ("/facts", {"facts": ["emp(cy, hr)"], "timeout_s": True},
             "timeout_s"),
        ]:
            status, out = _request(host, port, "POST", path, body)
            assert status == 400, body
            assert field in out["error"], body
        # The refused ingests changed nothing, on disk included: the
        # header still records the session's own step cap.
        assert (session.watermark, session.step_count,
                header.read_bytes()) == before
        for certain, count in ((False, 2), (True, 0)):
            status, out = _request(
                host, port, "POST", "/query",
                {"query": query, "certain": certain},
            )
            assert status == 200
            assert out["certain"] is certain and out["count"] == count
        status, out = _request(
            host, port, "POST", "/facts",
            {"facts": ["emp(cy, hr)"], "max_steps": 20_000,
             "timeout_s": 5},
        )
        assert status == 200 and out["new_steps"] == 1
    service.close()
    session.close()


def test_http_readonly_store_conflict():
    service = ChaseService(Instance(parse_database("p(a, b)")))
    with BackgroundServer(service) as background:
        host, port = background.address
        status, out = _request(
            host, port, "POST", "/facts", {"facts": "p(c, d)"}
        )
        assert status == 409
        assert "read-only" in out["error"]
    service.close()


# -- one resident per service ------------------------------------------------


def test_service_serves_exactly_one_resident():
    import repro.serve

    assert not hasattr(repro.serve, "Resident")
    assert not hasattr(repro.serve, "serve_background")
    with pytest.raises(TypeError):
        ChaseService()
    with pytest.raises(TypeError):
        ChaseService(None)
    instance = Instance(parse_database("p(a, b)"))
    with pytest.raises(TypeError):
        ChaseService(instance, cancel=None)
    service = ChaseService(instance)
    for name in ("residents", "add_session", "add_readonly"):
        assert not hasattr(service, name)
    for call in (
        lambda: service.query("q(X) :- p(X, Y)", resident="default"),
        lambda: service.query("q(X) :- p(X, Y)", kernel="tuple"),
        lambda: service.entail("p(a, b)", resident="default"),
        lambda: service.ingest("p(c, d)", resident="default"),
    ):
        with pytest.raises(TypeError):
            call()
    service.close()


# -- max_steps only raises the step cap --------------------------------------

STAFF_RULES = parse_program(
    """
    emp(X, D) -> exists K . works(X, K)
    works(X, K) -> staff(X)
    """
)


def durable_staff_service(tmp_path):
    """A journaled resident over a saved store: 4 steps, cap 10,000."""
    store = tmp_path / "store"
    session = ChaseSession.start(
        parse_database("emp(ann, hr)\nemp(bob, it)"), STAFF_RULES,
        save=str(store),
    )
    assert (session.step_count, session.max_steps) == (4, 10_000)
    return ChaseService(session, journal=True), session, store


def test_http_refuses_a_lower_max_steps(tmp_path):
    # A lower cap would freeze the chase, on disk too.
    service, session, store = durable_staff_service(tmp_path)

    def state():
        wal = store / "ingest.wal"
        return (session.watermark, session.step_count,
                (store / "chase.pkl").read_bytes(),
                wal.read_bytes() if wal.exists() else None)

    before = state()
    with BackgroundServer(service) as background:
        host, port = background.address
        status, out = _request(
            host, port, "POST", "/facts",
            {"facts": ["emp(cy, hr)"], "max_steps": 1},
        )
        assert status == 400 and "max_steps" in out["error"]
        assert state() == before
        status, out = _request(
            host, port, "POST", "/facts", {"facts": ["emp(cy, hr)"]}
        )
        assert status == 200 and out["new_steps"] == 2
        # The current cap itself is accepted, as is a raise.
        for fact, cap in (("emp(dee, it)", 10_000), ("emp(eve, it)", 20_000)):
            status, out = _request(
                host, port, "POST", "/facts",
                {"facts": [fact], "max_steps": cap},
            )
            assert status == 200 and out["new_steps"] == 2
        status, out = _request(
            host, port, "POST", "/query", {"query": "q(X) :- staff(X)"}
        )
        assert sorted(out["answers"]) == [
            "q(ann)", "q(bob)", "q(cy)", "q(dee)", "q(eve)"
        ]
    service.close()


def test_http_raised_max_steps_on_a_duplicate_delta_is_durable(tmp_path):
    import pickle

    service, session, store = durable_staff_service(tmp_path)
    with BackgroundServer(service) as background:
        host, port = background.address
        status, out = _request(
            host, port, "POST", "/facts",
            {"facts": ["emp(ann, hr)"], "max_steps": 20_000},
        )
        assert status == 200 and out["new_facts"] == 0
    service.close()
    header = pickle.loads((store / "chase.pkl").read_bytes())
    assert header["max_steps"] == 20_000
    with ChaseSession.resume(str(store)) as reopened:
        assert reopened.max_steps == 20_000


# -- docs/CLI.md's HTTP table names exactly what the server handles ----------


def test_http_doc_table_matches_the_routes():
    # The routes and body fields ChaseServer._route reads, and those
    # docs/CLI.md's HTTP table names, must match in both directions.
    import inspect
    import os
    import re

    from repro.serve.server import ChaseServer

    handled = {}
    source = inspect.getsource(ChaseServer._route)
    for block in source.split("        if path == ")[1:]:
        routes = re.findall(r'"(/\w*)"', block.split(":\n", 1)[0])
        fields = set(re.findall(
            r'(?:payload\.get\(|_field\(payload, )"(\w+)"', block
        ))
        for route in routes:
            handled[route] = fields

    doc_path = os.path.join(
        os.path.dirname(__file__), os.pardir, "docs", "CLI.md"
    )
    with open(doc_path, encoding="utf-8") as handle:
        doc = handle.read()
    table = doc.split("### The HTTP API", 1)[1].split("\n\n| route", 1)[1]
    table = table.split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        cells = row.split(" | ")
        fields = set(re.findall(r'"(\w+)"\??:', cells[1]))
        for route in re.findall(r"(?:GET|POST) (/\w*)", cells[0]):
            documented[route] = fields

    assert "/facts" in handled and "max_steps" in handled["/facts"]
    assert sorted(documented) == sorted(handled)
    assert documented == handled
