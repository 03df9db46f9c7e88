"""Incremental chase maintenance: sessions, deltas, and durability.

The contracts under test, from strongest to weakest (matching the
guarantees documented in :mod:`repro.chase.incremental`):

1. **Byte-identity across persistence.**  For a fixed arrival
   schedule (initial database, then deltas in order), the incremental
   run's fingerprint — facts in log order, trigger keys, provenance
   ordinals — is identical between a resident in-memory session and
   the durable ``extend_chase`` path.
2. **Skolem-level equality with the from-scratch chase** for the
   oblivious and semi-oblivious variants: chasing ``D ∪ Δ`` from
   scratch yields the same instance up to null renaming (equal fact
   and null counts, mutual homomorphism).
3. **Certain-answer equality for every variant**, restricted included:
   incremental maintenance preserves universality, so certain answers
   agree with the from-scratch chase even where the instances differ.
"""

import pytest

from repro.chase import ChaseVariant, resume_chase, run_chase
from repro.chase.delta import ingest_facts
from repro.chase.incremental import ChaseSession, extend_chase
from repro.model import Null, instance_homomorphism
from repro.model.instances import SnapshotInstance
from repro.parser import parse_database, parse_fact, parse_program, parse_query
from repro.runtime.budget import Budget

VARIANTS = (
    ChaseVariant.OBLIVIOUS,
    ChaseVariant.SEMI_OBLIVIOUS,
    ChaseVariant.RESTRICTED,
)

RULES = parse_program(
    """
    emp(X, D) -> exists M . mgr(D, M)
    mgr(D, M), emp(E, D) -> rep(E, M)
    rep(E, M), rep(M, T) -> rep(E, T)
    rep(E, M), rep(F, M) -> peer(E, F)
    """
)

BASE = parse_database("emp(ann, sales)\nemp(bob, sales)")

DELTAS = (
    [parse_fact("emp(cam, ops)"), parse_fact("emp(dee, ops)")],
    [parse_fact("emp(eve, sales)")],
)


def fingerprint(session):
    """Facts in log order + trigger keys + provenance ordinals: equal
    fingerprints mean byte-identical runs."""
    inst = session.instance
    return (
        tuple(inst.facts()),
        tuple(s.trigger.key(session.variant) for s in session._steps),
        tuple(s._ordinals for s in session._steps),
    )


def union_database():
    db = parse_database("emp(ann, sales)\nemp(bob, sales)")
    for delta in DELTAS:
        for fact in delta:
            db.add(fact)
    return db


def run_schedule(variant):
    """Start on BASE, feed DELTAS in order, return the session."""
    session = ChaseSession.start(BASE, RULES, variant=variant)
    for delta in DELTAS:
        session.extend(delta)
    return session


@pytest.mark.parametrize(
    "variant", (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS)
)
def test_incremental_skolem_equal_to_from_scratch(variant):
    with run_schedule(variant) as session:
        incremental = session.instance
        scratch = run_chase(union_database(), RULES, variant).instance
        assert len(incremental) == len(scratch)

        def nulls(inst):
            return {t for t in inst.active_domain() if isinstance(t, Null)}

        assert len(nulls(incremental)) == len(nulls(scratch))
        assert instance_homomorphism(incremental, scratch) is not None
        assert instance_homomorphism(scratch, incremental) is not None


@pytest.mark.parametrize("variant", VARIANTS)
def test_incremental_certain_answers_match_from_scratch(variant):
    query = parse_query("q(E, F) :- peer(E, F)")
    with run_schedule(variant) as session:
        incremental = query.certain_answers(session.instance)
        scratch = run_chase(union_database(), RULES, variant)
        assert session.terminated and scratch.terminated
        assert incremental == query.certain_answers(scratch.instance)
        assert incremental  # the workload has certain answers to lose


def test_incremental_universal_for_restricted_extension_legs():
    # Each restricted extension leg must preserve universality: the
    # incremental instance maps into the from-scratch chase and back.
    with run_schedule(ChaseVariant.RESTRICTED) as session:
        scratch = run_chase(
            union_database(), RULES, ChaseVariant.RESTRICTED
        ).instance
        assert instance_homomorphism(session.instance, scratch) is not None
        assert instance_homomorphism(scratch, session.instance) is not None


def test_durable_extend_matches_memory_session(tmp_path):
    store = str(tmp_path / "chase.d")
    run_chase(BASE, RULES, ChaseVariant.OBLIVIOUS, save=store)
    for delta in DELTAS:
        extend_chase(store, delta)
    with ChaseSession.resume(store) as reopened:
        with run_schedule(ChaseVariant.OBLIVIOUS) as memory:
            assert fingerprint(reopened) == fingerprint(memory)
    # resume_chase still reads the extended store (a no-op leg).
    result = resume_chase(store, save=False)
    assert result.terminated
    assert result.step_count == reopened.step_count


def test_durable_extend_checkpoints_each_leg(tmp_path):
    store = str(tmp_path / "chase.d")
    run_chase(BASE, RULES, ChaseVariant.SEMI_OBLIVIOUS, save=store)
    before = extend_chase(store, DELTAS[0]).step_count
    # A fresh process-independent reopen sees the first delta durable.
    with ChaseSession.resume(store, save=False) as session:
        assert session.step_count == before
        assert session.terminated


def test_raised_cap_on_a_no_op_leg_reaches_the_store(tmp_path):
    # A leg that adds nothing still records a new cap, so a later
    # resume runs under it.
    import pickle

    store = str(tmp_path / "chase.d")
    header_path = tmp_path / "chase.d" / "chase.pkl"
    run_chase(BASE, RULES, ChaseVariant.SEMI_OBLIVIOUS, save=store)
    before = pickle.loads(header_path.read_bytes())
    result = extend_chase(store, [], max_steps=20_000)
    assert result.max_steps == 20_000
    header = pickle.loads(header_path.read_bytes())
    assert header["max_steps"] == 20_000
    assert header == dict(before, max_steps=20_000)
    with ChaseSession.resume(store) as session:
        assert session.max_steps == 20_000
        # A resident session records a raise on a duplicate delta too.
        out = session.extend([parse_fact("emp(ann, sales)")],
                             max_steps=30_000)
        assert out.max_steps == 30_000
    with ChaseSession.resume(store) as session:
        assert session.max_steps == 30_000


def test_extend_rejects_non_ground_and_null_facts():
    from repro.model import Atom, Constant, Predicate

    with ChaseSession.start(BASE, RULES) as session:
        with pytest.raises(ValueError):
            session.extend([parse_query("emp(X, sales)").atoms[0]])
        null_fact = Atom(
            Predicate("emp", 2), (Null(99), Constant("sales"))
        )
        with pytest.raises(ValueError):
            session.extend([null_fact])


def test_extend_duplicate_delta_is_noop():
    with ChaseSession.start(BASE, RULES) as session:
        steps = session.step_count
        watermark = session.watermark
        session.extend([parse_fact("emp(ann, sales)")])
        assert session.step_count == steps
        assert session.watermark == watermark
        assert session.terminated


def test_closed_session_refuses_extend_but_stays_readable():
    session = run_schedule(ChaseVariant.SEMI_OBLIVIOUS)
    facts = session.instance.facts()
    session.close()
    session.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        session.extend([parse_fact("emp(fay, hr)")])
    assert session.instance.facts() == facts
    assert session.result.terminated
    query = parse_query("q(E) :- emp(E, sales)")
    assert len(list(query.answers(session.instance))) == 3


def test_extend_after_step_budget_stop():
    with ChaseSession.start(BASE, RULES, max_steps=1) as session:
        assert not session.terminated
        assert session.stop_reason == "step_budget"
        # Raising the cap lets the same session finish, then extend.
        session.extend([], max_steps=10_000)
        assert session.terminated
        result = session.extend(DELTAS[0])
        assert result.terminated
        query = parse_query("q(E) :- emp(E, ops)")
        assert len(list(query.answers(session.instance))) == 2


def test_extend_leg_deadline_stops_round_consistently_then_recovers():
    # A ticking injected clock: every probe advances 1s, so the first
    # budget check after start() is already past the 0.5s deadline.
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    with ChaseSession.start(BASE, RULES) as session:
        result = session.extend(
            DELTAS[0], budget=Budget(timeout_s=0.5, clock=clock)
        )
        assert session.stop_reason == "deadline"
        assert not session.terminated
        assert result.stop_reason == "deadline"
        # A fresh (unlimited) leg drives the leftover frontier to the
        # fixpoint; the final model agrees with the untripped schedule
        # (fact *order* may differ — the deadline interleaved two
        # deltas into one leg — but the facts and answers may not).
        session.extend(DELTAS[1])
        assert session.terminated
        query = parse_query("q(E, F) :- peer(E, F)")
        with ChaseSession.start(BASE, RULES) as reference:
            for delta in DELTAS:
                reference.extend(delta)
            # Same model up to null renaming (the deadline interleaved
            # two deltas into one leg, so order/numbering may differ).
            assert len(session.instance) == len(reference.instance)
            assert instance_homomorphism(
                session.instance, reference.instance
            ) is not None
            assert instance_homomorphism(
                reference.instance, session.instance
            ) is not None
            assert query.certain_answers(
                session.instance
            ) == query.certain_answers(reference.instance)


def test_session_snapshot_pins_watermark():
    with ChaseSession.start(BASE, RULES) as session:
        snap = session.snapshot()
        assert isinstance(snap, SnapshotInstance)
        before = snap.watermark
        session.extend(DELTAS[0])
        assert snap.watermark == before  # old view unmoved
        assert session.snapshot().watermark == session.watermark
        assert session.watermark > before


def test_ingest_facts_notifies_engine():
    session = ChaseSession.start(BASE, RULES)
    try:
        added = ingest_facts(session._engine, [parse_fact("emp(fay, hr)")])
        assert len(added) == 1
        session._run_leg(None)
        assert session.terminated
        query = parse_query("q(M) :- mgr(hr, M)")
        assert len(list(query.answers(session.instance))) == 1
    finally:
        session.close()
