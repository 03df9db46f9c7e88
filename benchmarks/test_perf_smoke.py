"""Smoke mode for the perf harness — tiny sizes, no timing assertions.

Runs every ``bench_perf`` scenario at a toy scale inside tier-1 so the
harness itself cannot rot: scenario builders must keep producing valid
programs, the indexed engine must terminate on them, and the
seed-engine replica must still agree with the indexed engine
fact-for-fact and trigger-for-trigger.  Timings are measured but never
asserted on.
"""

import json

import pytest

import bench_perf

SMOKE_SCALE = 0.01


@pytest.mark.parametrize(
    "make", bench_perf.SCENARIOS, ids=lambda make: make.__name__
)
def test_scenario_smoke(make):
    spec = make(SMOKE_SCALE)
    row = bench_perf.run_scenario(spec)
    assert row["terminated"]
    assert row["facts_created"] > 0
    assert row["triggers_fired"] > 0
    assert row["wall_s"] >= 0


def test_baseline_comparison_agrees_on_every_scenario():
    # run_baseline_comparison raises on any fact/trigger divergence
    # between the indexed engine and the seed replica.
    for make in bench_perf.SCENARIOS:
        report = bench_perf.run_baseline_comparison(make(SMOKE_SCALE))
        assert report["facts_final"] > 0


@pytest.mark.parametrize(
    "make,run",
    bench_perf.DECIDERS,
    ids=lambda arg: arg.__name__ if callable(arg) else str(arg),
)
def test_decider_scenarios_smoke(make, run):
    # The decider runners raise on any verdict/fact divergence between
    # the new engines and their pre-PR-2 baseline replicas.
    row = run(make(SMOKE_SCALE))
    assert row["wall_s"] >= 0
    assert row["baseline_wall_s"] >= 0
    assert row["speedup"] is not None
    assert row["rules"] > 0


def test_mfa_decider_scenario_is_mfa_at_smoke_scale():
    row = bench_perf.run_mfa_decider(
        bench_perf.mfa_decider_scenario(SMOKE_SCALE)
    )
    assert row["mfa"] is True
    assert row["facts_final"] > row["database_facts"]


def test_guarded_decider_scenario_terminates_at_smoke_scale():
    row = bench_perf.run_guarded_decider(
        bench_perf.guarded_decider_scenario(SMOKE_SCALE)
    )
    assert row["terminating"] is True
    assert row["pattern_joins"] > 0


@pytest.mark.parametrize(
    "make,run",
    bench_perf.QUERY_SCENARIOS,
    ids=lambda arg: arg.__name__ if callable(arg) else str(arg),
)
def test_query_scenarios_smoke(make, run):
    # The query runners raise on any answer-set / verdict divergence
    # between the planner path and their baselines.
    row = run(make(SMOKE_SCALE))
    assert row["equivalent"] is True
    assert row["wall_s"] >= 0 and row["baseline_wall_s"] >= 0
    assert row["rate_per_s"] is not None
    assert row["speedup"] is not None


def test_cq_answering_scenario_has_certain_answers():
    row = bench_perf.run_cq_answering(
        bench_perf.cq_answering_scenario(SMOKE_SCALE)
    )
    assert row["certain_answers"] > 0
    assert row["answers"] >= row["certain_answers"]
    assert row["queries"] >= 3


def test_entailment_scenario_mixes_verdicts():
    row = bench_perf.run_entailment(
        bench_perf.entailment_scenario(SMOKE_SCALE)
    )
    # At least one entailed and one refuted atom keep both outcomes
    # covered by the equivalence check.
    assert 0 < row["entailed"] < row["atoms_checked"]


def test_check_mode_fails_on_query_regression():
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    for row in payload["queries"]:
        row["rate_per_s"] *= 1e9  # impossible recorded rate
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE, ratio=0.5)
    assert not ok
    assert any(
        line.startswith("FAIL") and "answers/s" in line for line in lines
    )


def test_check_mode_passes_against_fresh_report():
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE, ratio=0.01)
    assert ok, lines
    # One rate line and one memory line per chase scenario, one rate
    # line per query scenario plus a speedup-gate skip line for each
    # of the two kernel rows (smoke scale sits below the kernel noise
    # floor), one governance-overhead line, one persistence line, a
    # serve speedup line and a serve queries/s line, a WAL-overhead
    # line and an overload-throughput line.
    assert len(lines) == (
        2 * len(bench_perf.SCENARIOS) + len(bench_perf.QUERY_SCENARIOS) + 8
    )
    assert sum("speedup gate" in line for line in lines) == 2
    assert sum("peak" in line for line in lines) == len(bench_perf.SCENARIOS)
    assert sum("fault_recovery" in line for line in lines) == 1
    assert sum("persistence" in line for line in lines) == 1
    assert sum("serve_incremental" in line for line in lines) == 2
    assert sum("serve_overload" in line for line in lines) == 2


def test_check_mode_fails_on_memory_regression():
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    for row in payload["scenarios"]:
        # Strip the working-set column (as a pre-PR-7 recording would
        # lack it) so the gate falls back to the traced-peak ceiling,
        # then make that ceiling impossible.
        row["working_set_mb"] = None
        row["peak_mem_mb"] /= 1e9
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE, ratio=0.01)
    assert not ok
    assert any(line.startswith("FAIL") and "peak" in line for line in lines)


def test_working_set_gate_prefers_rss_when_recorded():
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    measurable = [
        row for row in payload["scenarios"]
        if row.get("working_set_mb")
    ]
    if not measurable:
        pytest.skip("no RSS probe on this host")
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE, ratio=0.01)
    assert ok, lines
    assert sum("working-set" in line for line in lines) == len(measurable)


def test_scenario_rows_carry_peak_memory():
    row = bench_perf.run_scenario(bench_perf.deep_chain_scenario(SMOKE_SCALE))
    assert row["peak_mem_mb"] is not None and row["peak_mem_mb"] > 0
    # The working-set column exists everywhere; it is None only on
    # hosts with no RSS probe at all.
    assert "working_set_mb" in row
    if row["working_set_mb"] is not None:
        assert row["working_set_mb"] >= 0


def test_persistence_row_smoke(tmp_path):
    row = bench_perf.run_persistence(
        bench_perf.persistence_scenario(SMOKE_SCALE)
    )
    # The runner raises if the reopened store answers differently.
    assert row["equivalent"] is True
    assert row["certain_answers"] > 0
    assert row["disk_mb"] > 0
    assert row["save_s"] >= 0 and row["open_s"] >= 0
    assert row["rate_per_s"] is not None and row["rate_per_s"] > 0


def test_fault_recovery_row_smoke():
    row = bench_perf.run_fault_recovery(SMOKE_SCALE)
    # The governed run is equivalence-checked inside the runner; at
    # smoke scale the wall sits under the noise floor, so the gate
    # verdict is "skipped" (None) rather than a coin flip.
    assert row["equivalent"] is True
    assert row["budget_checks"] and row["budget_checks"] > 0
    assert row["overhead_pct"] is not None


def test_serve_incremental_row_smoke():
    row = bench_perf.run_serve_incremental(
        bench_perf.serve_incremental_scenario(SMOKE_SCALE)
    )
    # The runner raises if any incremental leg diverges from the
    # from-scratch chase of the same prefix; at smoke scale the gate
    # wall sits under the noise floor, so the verdict may be skipped.
    assert row["equivalent"] is True
    assert row["deltas"] >= 2
    assert row["queries_served"] > 0
    assert row["incremental_wall_s"] >= 0


def test_serve_overload_row_smoke():
    row = bench_perf.run_serve_overload(
        bench_perf.serve_overload_scenario(SMOKE_SCALE)
    )
    # The runner raises if an accepted answer is wrong, a shed
    # response lacks Retry-After, or the journaled/journal-less arms
    # diverge; at smoke scale the WAL gate sits under the noise floor.
    assert row["equivalent"] is True
    assert row["accepted"] > 0
    assert row["wal_overhead_pct"] is not None
    assert row["clients"] == 2 * row["max_inflight"]


def test_check_mode_fails_on_regression():
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    for row in payload["scenarios"]:
        row["facts_per_s"] *= 1e9  # impossible recorded rate
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE)
    assert not ok
    assert any(line.startswith("FAIL") for line in lines)


def test_check_mode_fails_on_unknown_scenario():
    payload = {"scenarios": [{"name": "gone", "facts_per_s": 1.0}]}
    ok, lines = bench_perf.check_against(payload, SMOKE_SCALE)
    assert not ok


def test_check_cli_exit_codes(tmp_path):
    report = tmp_path / "report.json"
    assert bench_perf.main(
        ["--scale", str(SMOKE_SCALE), "--output", str(report),
         "--no-compare"]
    ) == 0
    assert bench_perf.main(
        ["--scale", str(SMOKE_SCALE), "--check", str(report),
         "--check-ratio", "0.01"]
    ) == 0
    broken = json.loads(report.read_text())
    for row in broken["scenarios"]:
        row["facts_per_s"] *= 1e9
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken))
    assert bench_perf.main(
        ["--scale", str(SMOKE_SCALE), "--check", str(bad)]
    ) == 1


def test_suite_payload_shape(tmp_path):
    payload = bench_perf.run_suite(scale=SMOKE_SCALE, compare=False)
    assert payload["schema_version"] == 1
    assert len(payload["scenarios"]) == len(bench_perf.SCENARIOS)
    names = {row["name"] for row in payload["scenarios"]}
    assert bench_perf.HEADLINE in names
    for row in payload["scenarios"]:
        for key in ("variant", "facts_final", "triggers_fired", "wall_s",
                    "facts_per_s", "triggers_per_s", "terminated"):
            assert key in row
    decider_names = {row["name"] for row in payload["deciders"]}
    assert decider_names == {"mfa_decider", "guarded_decider"}
    assert payload["headline_decider"] in decider_names
    for row in payload["deciders"]:
        for key in ("wall_s", "baseline_wall_s", "speedup"):
            assert key in row
    query_names = {row["name"] for row in payload["queries"]}
    assert query_names == {"cq_answering", "entailment",
                           "vectorized_join", "wcoj_cyclic"}
    assert payload["headline_query"] in query_names
    for row in payload["queries"]:
        for key in ("wall_s", "baseline_wall_s", "rate_per_s",
                    "baseline_rate_per_s", "speedup", "equivalent"):
            assert key in row
    kernel_rows = {row["name"]: row for row in payload["queries"]
                   if row.get("gate_speedup")}
    assert set(kernel_rows) == {"vectorized_join", "wcoj_cyclic"}
    assert kernel_rows["vectorized_join"]["kernel"] == "vector"
    assert kernel_rows["wcoj_cyclic"]["kernel"] == "wcoj"
    for row in kernel_rows.values():
        for key in ("kernel", "numpy", "answers", "gate_speedup",
                    "within_gate"):
            assert key in row
    fault = payload["fault_recovery"]
    for key in ("ungoverned_wall_s", "governed_wall_s", "overhead_pct",
                "gate_pct", "within_gate", "budget_checks"):
        assert key in fault
    serve = payload["serve_incremental"]
    for key in ("incremental_wall_s", "full_rechase_wall_s", "speedup",
                "gate_speedup", "within_gate", "readers",
                "queries_served", "queries_per_s", "equivalent"):
        assert key in serve
    assert serve["equivalent"] is True
    overload = payload["serve_overload"]
    for key in ("accepted", "shed", "shed_rate", "accepted_per_s",
                "wal_plain_wall_s", "wal_journal_wall_s",
                "wal_overhead_pct", "wal_gate_pct", "wal_within_gate",
                "equivalent"):
        assert key in overload
    assert overload["equivalent"] is True
    stored = payload["persistence"]
    for key in ("save_s", "open_s", "disk_mb", "certain_answers",
                "rate_per_s", "equivalent"):
        assert key in stored
    assert stored["equivalent"] is True
    hardware = payload["hardware"]
    assert hardware["cpu_count"] >= 1
    assert hardware["platform"] and hardware["machine"]
    # The payload must round-trip through JSON (that is the contract
    # BENCH_chase.json consumers rely on).
    assert json.loads(json.dumps(payload)) == payload


def test_main_writes_report(tmp_path):
    out = tmp_path / "BENCH_chase.json"
    assert bench_perf.main(
        ["--scale", str(SMOKE_SCALE), "--output", str(out), "--no-compare"]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["harness"] == "benchmarks/bench_perf.py"
