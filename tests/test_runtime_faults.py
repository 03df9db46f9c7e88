"""Runtime governance under injected faults.

The contracts under test (see :mod:`repro.runtime`):

* budget stops (deadline, memory ceiling, cancellation, round/fact
  caps) are round-consistent: the partial instance equals the database
  plus exactly the facts of the recorded steps, and ``stop_reason``
  names the limit that tripped;
* the budget-raising surfaces (MFA, saturation, compiled queries)
  raise :class:`BudgetExceededError` carrying the structured reason.

Fault plans travel via the ``REPRO_FAULTS`` environment variable
(:mod:`repro.runtime.faults`).
"""

import pytest

from repro.chase import (
    ChaseSession,
    ChaseVariant,
    critical_instance,
    resume_chase,
    run_chase,
)
from repro.errors import BudgetExceededError
from repro.parser import parse_database, parse_fact, parse_program
from repro.runtime import Budget, CancelToken
from repro.runtime.faults import ENV_VAR
from repro.classes import narrowest_class
from repro.termination import (
    decide_guarded,
    decide_termination,
    is_mfa,
    skolem_chase,
)

DIVERGING = "person(X) -> exists Y . father(X, Y), person(Y)"
DIVERGING_DB = "person(bob)"

# Terminating fixture that needs several rounds.
CLOSURE = "e(X, Y), e(Y, Z) -> e(X, Z)"
CLOSURE_DB = "\n".join(f"e(c{i}, c{i + 1})" for i in range(12))


def assert_round_consistent(result, database):
    """A budget-stopped result is the database plus exactly the facts
    of the recorded steps — never a mid-trigger torso."""
    added = sum(len(step.new_facts) for step in result.steps)
    assert len(result.instance) == len(database) + added
    for step in result.steps:
        for fact in step.new_facts:
            assert fact in result.instance


def fake_clock(step=1.0):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


def cancelled():
    token = CancelToken()
    token.cancel()
    return token


@pytest.fixture
def closure():
    return parse_program(CLOSURE), parse_database(CLOSURE_DB)


@pytest.fixture
def diverging():
    return parse_program(DIVERGING), parse_database(DIVERGING_DB)


class TestBudgetStops:
    def test_deadline_stop_is_round_consistent(self, diverging):
        rules, database = diverging
        # Deterministic mid-run deadline: the injected clock advances
        # 1s per budget probe, so the 10s deadline trips after a few
        # rounds — no sleeping, no wall-clock flakiness.
        budget = Budget(timeout_s=10.0, clock=fake_clock(1.0))
        result = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=budget,
        )
        assert not result.terminated
        assert result.stop_reason == "deadline"
        assert result.resource["rounds"] >= 1
        assert_round_consistent(result, database)

    def test_memory_ceiling_stop(self, diverging, monkeypatch):
        rules, database = diverging
        # A fault-injected allocation spike makes the working-set probe
        # report ~1 TiB, tripping any sane ceiling deterministically.
        monkeypatch.setenv(ENV_VAR, f"spike:{1 << 40}")
        budget = Budget(max_memory_mb=256.0, memory_check_every=1)
        result = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=budget,
        )
        assert not result.terminated
        assert result.stop_reason == "memory"
        assert result.resource["memory_mb"] > 256.0
        assert_round_consistent(result, database)

    def test_max_rounds_and_max_facts(self, diverging):
        rules, database = diverging
        by_rounds = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=Budget(max_rounds=3),
        )
        assert by_rounds.stop_reason == "step_budget"
        assert by_rounds.resource["rounds"] == 3
        assert_round_consistent(by_rounds, database)

        by_facts = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=Budget(max_facts=9),
        )
        assert by_facts.stop_reason == "step_budget"
        assert len(by_facts.instance) >= 9
        assert_round_consistent(by_facts, database)

    def test_budget_stop_matches_unbudgeted_prefix(self, diverging):
        rules, database = diverging
        governed = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=Budget(max_rounds=4),
        )
        free = run_chase(database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000)
        # The governed run is a prefix of the ungoverned one — budgets
        # stop the engine, they never change what it computes.
        n = len(governed.steps)
        assert [s.new_facts for s in governed.steps] == \
            [s.new_facts for s in free.steps[:n]]


class TestCancellation:
    def test_pre_cancelled_budget_stops_the_run(self, diverging):
        rules, database = diverging
        token = CancelToken()
        token.cancel()
        result = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=Budget(cancel=token),
        )
        assert result.stop_reason == "cancelled"
        assert not result.terminated
        assert result.step_count == 0
        assert result.instance.facts() == database.facts()

    def test_mid_run_cancellation_is_round_consistent(self, diverging):
        rules, database = diverging
        token = CancelToken()
        calls = {"n": 0}

        def cancelling_clock():
            # Cancel from "outside" after a handful of budget probes —
            # the engine must notice at the next boundary.
            calls["n"] += 1
            if calls["n"] == 6:
                token.cancel()
            return float(calls["n"])

        budget = Budget(
            timeout_s=1e9, cancel=token, clock=cancelling_clock
        )
        result = run_chase(
            database, rules, ChaseVariant.SEMI_OBLIVIOUS, 1_000_000,
            budget=budget,
        )
        assert result.stop_reason == "cancelled"
        assert result.step_count >= 1
        assert_round_consistent(result, database)


    def test_pre_cancelled_resume_stops_at_the_checkpoint(
        self, diverging, tmp_path
    ):
        rules, database = diverging
        path = str(tmp_path / "store")
        part = run_chase(database, rules, ChaseVariant.SEMI_OBLIVIOUS,
                         max_steps=5, save=path)
        result = resume_chase(path, max_steps=1_000,
                              budget=Budget(cancel=cancelled()))
        assert result.stop_reason == "cancelled"
        assert result.step_count == part.step_count
        assert result.instance.facts() == part.instance.facts()

    def test_pre_cancelled_extend_ingests_but_fires_nothing(self, closure):
        rules, database = closure
        session = ChaseSession.start(database, rules)
        before, steps = len(session.instance), session.result.step_count
        result = session.extend([parse_fact("e(c12, c13)")],
                                budget=Budget(cancel=cancelled()))
        assert result.stop_reason == "cancelled"
        assert not session.terminated
        # The delta row is in; its consequences wait for the next leg.
        assert len(session.instance) == before + 1
        assert result.step_count == steps
        session.extend([])
        assert session.terminated
        assert len(session.instance) == 14 * 13 // 2

    def test_pre_cancelled_skolem_chase_stops(self, diverging):
        rules, _ = diverging
        budget = Budget(cancel=cancelled())
        instance, cyclic, fixpoint = skolem_chase(
            critical_instance(rules), rules, budget=budget
        )
        assert cyclic is None and not fixpoint
        assert budget.stop_reason == "cancelled"

    def test_pre_cancelled_is_mfa_raises(self, diverging):
        rules, _ = diverging
        with pytest.raises(BudgetExceededError) as info:
            is_mfa(rules, budget=Budget(cancel=cancelled()))
        assert info.value.stop_reason == "cancelled"

    def test_pre_cancelled_decide_guarded_raises(self, diverging):
        rules, _ = diverging
        with pytest.raises(BudgetExceededError) as info:
            decide_guarded(rules, ChaseVariant.SEMI_OBLIVIOUS,
                           budget=Budget(cancel=cancelled()))
        assert info.value.stop_reason == "cancelled"

    @pytest.mark.parametrize("method", ["auto", "linear"])
    def test_pre_cancelled_linear_decider_raises(self, method):
        # A linear (not simple-linear) chain: the repeated variable
        # sends auto dispatch to the Theorem 2 decider.
        rules = parse_program(
            "q(X, X) -> p1(X, X)\n"
            "p1(X, Y) -> exists Z . p2(Y, Z)\n"
            "p2(X, Y) -> exists Z . p3(Y, Z)"
        )
        assert narrowest_class(rules) == "linear"
        with pytest.raises(BudgetExceededError) as info:
            decide_termination(rules, method=method,
                               budget=Budget(cancel=cancelled()))
        assert info.value.stop_reason == "cancelled"

class TestRaisingSurfaces:
    def test_skolem_chase_stops_on_budget(self, closure):
        # A terminating full program that needs several rounds: a
        # 1-round budget stops it before fixpoint, without a cycle.
        rules, database = closure
        budget = Budget(max_rounds=1)
        instance, cyclic, fixpoint = skolem_chase(
            database, rules, max_steps=1_000_000, budget=budget,
        )
        assert cyclic is None and not fixpoint
        assert budget.stop_reason == "step_budget"
        # Stopped early: the full closure of a 12-chain is larger.
        assert len(database) < len(instance) < 12 * 13 // 2

    def test_is_mfa_raises_with_stop_reason(self, diverging):
        rules, _ = diverging
        with pytest.raises(BudgetExceededError) as info:
            is_mfa(rules, max_steps=1_000_000, budget=Budget(max_rounds=1))
        assert info.value.stop_reason == "step_budget"
        assert info.value.stats["rounds"] >= 1

    def test_decide_guarded_raises_on_deadline(self):
        rules = parse_program(
            "r(X, Y), p(Y) -> exists Z . r(Y, Z)\nr(X, Y) -> p(Y)"
        )
        budget = Budget(timeout_s=3.0, clock=fake_clock(1.0))
        with pytest.raises(BudgetExceededError) as info:
            decide_guarded(
                rules, ChaseVariant.SEMI_OBLIVIOUS, budget=budget
            )
        assert info.value.stop_reason == "deadline"
        assert "deadline" in str(info.value)

    def test_compiled_query_honors_budget(self):
        from repro.parser import parse_query

        database = parse_database(
            "\n".join(f"p(c{i})" for i in range(1300))
        )
        query = parse_query("q(X) :- p(X)")
        token = CancelToken()
        token.cancel()
        with pytest.raises(BudgetExceededError) as info:
            list(query.answers(database, budget=Budget(cancel=token)))
        assert info.value.stop_reason == "cancelled"

    def test_unstarted_limits_validate(self):
        with pytest.raises(ValueError):
            Budget(timeout_s=0)
        with pytest.raises(ValueError):
            Budget(max_rounds=-1)

    @pytest.mark.parametrize(
        "limit", ["timeout_s", "max_rounds", "max_facts", "max_memory_mb"]
    )
    def test_nan_limits_are_rejected(self, limit):
        # A NaN deadline never trips and a NaN ceiling never binds.
        with pytest.raises(ValueError, match=limit):
            Budget(**{limit: float("nan")})


class TestFaultPlan:
    @pytest.mark.parametrize("directive", ["crash:1", "slow:0.01"])
    def test_worker_directives_are_unknown(self, diverging, monkeypatch,
                                           directive):
        # The round-executor directives went with the executors; a
        # plan naming one is refused rather than silently ignored.
        rules, database = diverging
        monkeypatch.setenv(ENV_VAR, directive)
        with pytest.raises(ValueError,
                           match=f"unknown {ENV_VAR} directive"):
            run_chase(
                database, rules, ChaseVariant.SEMI_OBLIVIOUS, 10,
                budget=Budget(max_memory_mb=512.0, memory_check_every=1),
            )
