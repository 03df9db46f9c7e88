"""Toy-size smoke test of the benchmark command.

A traced run must print every per-layer metric of ``BENCHMARK.json``
with its unit; an untraced run with one wrong result planted in each
loop must print every end-to-end metric, report the three failures and
exit non-zero.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve",
         "--seed", "5", "--seconds", "0.5"] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, lines, json.loads(lines[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], (int, float)), metric["name"]


def test_traced_run_prints_every_per_layer_metric():
    code, _, result = _bench("--trace", "1")
    _assert_metrics(result, _spec()["per_layer"])
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0


def test_planted_wrong_answers_fail_the_run():
    code, lines, result = _bench("--trace", "0", "--plant")
    _assert_metrics(result, _spec()["end_to_end"])
    for metric in _spec()["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert code == 1
    assert result["correct"] is False and result["failed"] == 3
    failed = [line for line in lines if line.startswith("# FAILED")]
    assert len(failed) == 3


def test_declared_workloads_and_metrics_match_the_command():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.LOOPS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("n, pct, beyond", [
    (29, 50.0, 14), (96, 75.0, 24), (100, 90.0, 10), (300, 95.0, 15),
    (960, 95.0, 48), (1000, 99.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(i) for i in range(n)]
    assert run.tail(values)[0] == pct
    assert run.tail(values)[2] == beyond


def test_gap_flags_two_populations_at_the_percentile():
    continuous = [1.0 + i / 100.0 for i in range(200)]
    two_populations = [1.0] * 100 + [3.0] * 100
    assert run.gap(continuous, 50.0) < run.GAP_LIMIT
    assert run.gap(two_populations, 50.0) > run.GAP_LIMIT


def test_materialize_reference_per_component_equals_whole_instance():
    """``verify.check_materialize`` evaluates the query on each connected
    component of the chased facts; that must give the answers of one
    naive evaluation over the whole instance."""
    from repro.chase import run_chase
    from repro.model import Instance
    from repro.model.homomorphism import naive_homomorphisms
    from repro.parser import parse_database, parse_program, parse_query

    for case in run.gen.materialize_cases(seed=3, scale=0.05):
        instance = run_chase(parse_database(case["db"]),
                             parse_program(case["rules"]), "restricted",
                             max_steps=100_000).instance
        query = parse_query(case["query"])

        def answers(target):
            return {tuple(match[v] for v in query.answer_variables)
                    for match in naive_homomorphisms(query.atoms, target)}

        facts = [fact for pred in {atom.predicate for atom in query.atoms}
                 for fact in instance.facts_with_predicate(pred)]
        parts = set().union(*(answers(Instance(component))
                              for component in run.verify.components(facts)))
        assert parts == answers(instance) and parts
