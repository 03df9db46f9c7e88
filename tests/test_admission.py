"""Admission control, overload shedding, quarantine, and the health
surface.

The load-bearing tests saturate a real :class:`BackgroundServer` (with
the ``slow_accept`` fault pinning capacity) and require the service to
shed the excess with 429/503 + ``Retry-After`` while every *accepted*
request still answers correctly — and ``/health`` keeps answering
throughout.
"""

import http.client
import json
import threading

import pytest

from repro.chase import ChaseVariant
from repro.chase.incremental import ChaseSession
from repro.errors import BudgetExceededError
from repro.parser import parse_database, parse_program
from repro.serve import (
    AdmissionController,
    BackgroundServer,
    ChaseService,
    OverloadError,
    ServiceError,
)

RULES = parse_program(
    """
    e(X, Y) -> p(X, Y)
    p(X, Y), e(Y, Z) -> p(X, Z)
    """
)


def fresh_session():
    return ChaseSession.start(
        parse_database("e(n0, n1)\ne(n1, n2)"), RULES,
        variant=ChaseVariant.SEMI_OBLIVIOUS,
    )


def fresh_service(**admission_kwargs):
    return ChaseService(
        fresh_session(),
        admission=AdmissionController(**admission_kwargs)
        if admission_kwargs else None,
    )


def http_request(address, method, path, body=None, timeout=30):
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


# -- controller units --------------------------------------------------------


def test_gate_sheds_at_capacity_with_retry_after():
    clock = [0.0]
    ctl = AdmissionController(max_inflight=2, clock=lambda: clock[0])
    t1 = ctl.acquire()
    ctl.acquire()
    with pytest.raises(OverloadError) as err:
        ctl.acquire()
    assert err.value.status == 503
    assert err.value.retry_after_s >= 1.0
    clock[0] = 3.0
    ctl.release(t1)  # feeds the EWMA with a 3s request
    assert ctl.acquire() is not None  # capacity is back
    with pytest.raises(OverloadError) as err:
        ctl.acquire()
    # Retry-After scales with the observed latency EWMA.
    assert err.value.retry_after_s >= 3.0
    assert ctl.describe()["shed"] == 2


def test_retry_after_header_is_integer_seconds():
    ctl = AdmissionController(max_inflight=1)
    assert ctl.retry_after_header(1.2) == "2"
    assert ctl.retry_after_header(0.01) == "1"


def test_ingest_queue_bound_sheds_429():
    ctl = AdmissionController(max_inflight=None, max_ingest_queue=1)
    ctl.enter_ingest_queue()
    with pytest.raises(OverloadError) as err:
        ctl.enter_ingest_queue()
    assert err.value.status == 429
    ctl.leave_ingest_queue()
    ctl.enter_ingest_queue()  # freed slot admits again
    assert ctl.describe()["ingest_shed"] == 1


def test_unbounded_gate_never_sheds():
    ctl = AdmissionController(max_inflight=None)
    for _ in range(100):
        ctl.acquire()
    assert ctl.describe()["shed"] == 0


def test_degraded_window_after_shed():
    clock = [0.0]
    ctl = AdmissionController(max_inflight=1, clock=lambda: clock[0])
    assert not ctl.overloaded_recently()
    ctl.acquire()
    with pytest.raises(OverloadError):
        ctl.acquire()
    assert ctl.overloaded_recently()
    clock[0] = 100.0
    assert not ctl.overloaded_recently()


def test_controller_rejects_bad_bounds():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionController(max_ingest_queue=0)


# -- overload over HTTP ------------------------------------------------------


def test_http_overload_sheds_with_retry_after(monkeypatch):
    """Saturate a tiny gate with slow requests: the excess must shed
    429/503 with a Retry-After header, the accepted requests must
    still answer correctly, and /health must keep answering (it
    bypasses admission) while reporting degradation."""
    monkeypatch.setenv("REPRO_FAULTS", "slow_accept:0.3")
    service = fresh_service(max_inflight=2)
    results = []
    lock = threading.Lock()

    with BackgroundServer(service) as server:
        def query():
            status, headers, data = http_request(
                server.address, "POST", "/query",
                {"query": "q(X, Y) :- p(X, Y)", "certain": True},
            )
            with lock:
                results.append((status, headers, data))

        threads = [threading.Thread(target=query) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        statuses = sorted(s for s, _, _ in results)
        assert 200 in statuses, statuses
        assert 503 in statuses, statuses
        for status, headers, data in results:
            if status == 200:
                # Accepted requests answer correctly despite overload.
                assert sorted(data["answers"]) == [
                    "q(n0, n1)", "q(n0, n2)", "q(n1, n2)"
                ]
            else:
                assert status == 503
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert data["retry_after_s"] >= 1.0

        # /health bypasses the gate and reports the shed as degraded.
        monkeypatch.delenv("REPRO_FAULTS")
        status, _headers, health = http_request(
            server.address, "GET", "/health")
        assert status == 200
        assert health["ok"] is False
        assert health["status"] == "degraded"
        assert health["retry_after_s"] >= 1.0
    service.close()


def test_http_429_maps_ingest_queue_shed():
    """Park the resident's writer lock so the ingest line fills: the
    excess must shed 429 + Retry-After while the one queued ingest
    (and reads) still complete once the writer frees."""
    import time

    service = fresh_service(max_inflight=16, max_ingest_queue=1)
    statuses = []
    lock = threading.Lock()

    with BackgroundServer(service) as server:
        def ingest(i):
            status, headers, data = http_request(
                server.address, "POST", "/facts",
                {"facts": [f"e(x{i}, y{i})"]},
            )
            with lock:
                statuses.append((status, headers))

        service.lock.acquire()  # pin the writer: the line backs up
        try:
            threads = [
                threading.Thread(target=ingest, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            # Wait until the shed responses (everything beyond the one
            # queue slot) have come back.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    if len(statuses) >= 3:
                        break
                time.sleep(0.01)
        finally:
            service.lock.release()
        for t in threads:
            t.join()

    codes = sorted(s for s, _ in statuses)
    assert codes.count(429) == 3, codes
    assert codes.count(200) == 1, codes
    for status, headers in statuses:
        if status == 429:
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
    service.close()


# -- quarantine --------------------------------------------------------------


def test_failed_leg_quarantines_resident_but_reads_survive(monkeypatch):
    service = fresh_service()
    before = service.query("q(X, Y) :- p(X, Y)")

    def explode(self, *args, **kwargs):
        raise RuntimeError("simulated mid-leg corruption")

    # ChaseSession is slotted: patch the class, scoped to this test.
    monkeypatch.setattr(ChaseSession, "extend", explode)
    with pytest.raises(ServiceError) as err:
        service.ingest(["e(n2, n3)"])
    assert err.value.status == 503
    assert "quarantined" in str(err.value)
    assert service.status()["health"] == "quarantined"
    assert service.health()["status"] == "quarantined"
    assert service.health()["ok"] is False

    # Reads continue at the last published snapshot.
    after = service.query("q(X, Y) :- p(X, Y)")
    assert after["answers"] == before["answers"]
    assert after["watermark"] == before["watermark"]

    # Further ingests refuse without touching the session.
    monkeypatch.undo()
    with pytest.raises(ServiceError) as err:
        service.ingest(["e(n5, n6)"])
    assert err.value.status == 503
    assert "quarantined" in str(err.value)
    service.close()


def test_budget_stopped_leg_republishes_prefix(monkeypatch):
    """A budget-tripped extend must publish the session's durable
    round-consistent prefix (and its stop reason), never leave the
    resident at the stale pre-ingest snapshot."""
    service = fresh_service()
    real_extend = ChaseSession.extend

    def tripping_extend(self, facts, **kwargs):
        real_extend(self, facts)  # the prefix really lands
        raise BudgetExceededError("deadline", stop_reason="deadline")

    monkeypatch.setattr(ChaseSession, "extend", tripping_extend)
    before = service.snapshot.watermark
    with pytest.raises(BudgetExceededError):
        service.ingest(["e(n2, n3)"])
    assert service.snapshot.watermark > before  # republished
    assert service.stop_reason == "deadline"
    assert service.terminated is False
    assert service.status()["health"] == "degraded"
    assert service.health()["status"] == "degraded"
    # Not quarantined: a budget stop is a clean, resumable state.
    monkeypatch.undo()
    out = service.ingest(["e(n3, n4)"])
    assert out["terminated"] is True
    assert service.status()["health"] == "ok"
    service.close()


# -- validation & counters ---------------------------------------------------


def test_nan_timeout_is_rejected():
    service = fresh_service()
    for verb in (
        lambda: service.query("q(X) :- p(X, X)", timeout_s=float("nan")),
        lambda: service.entail("p(n0, n1)", timeout_s=float("nan")),
        lambda: service.ingest(["e(a, b)"], timeout_s=float("nan")),
    ):
        with pytest.raises(ServiceError, match="timeout_s"):
            verb()
    with pytest.raises(ServiceError, match="timeout_s"):
        service.query("q(X) :- p(X, X)", timeout_s=-1.0)
    service.close()


@pytest.mark.parametrize("timeout_s", [-1.0, 0.0, float("nan")])
def test_bad_request_timeout_is_rejected(timeout_s):
    # Requests without their own timeout_s get this deadline.
    with pytest.raises(ValueError, match="request_timeout_s"):
        ChaseService(fresh_session(), request_timeout_s=timeout_s)


def test_counters_are_exact_under_concurrency():
    service = fresh_service(max_inflight=None)
    workers, per_worker = 8, 25

    def hammer():
        for _ in range(per_worker):
            service.entail("p(n0, n1)")

    threads = [threading.Thread(target=hammer) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert service.queries == workers * per_worker
    service.close()


def test_health_shape_for_ok_service():
    service = fresh_service()
    health = service.health()
    assert health["ok"] is True
    assert health["status"] == "ok"
    assert health["draining"] is False
    assert set(health) == {"ok", "status", "draining"}
    service.shutdown()
    assert service.health()["ok"] is False
    assert service.health()["draining"] is True
    service.close()
