"""Golden record of the guarded decider's transition graphs.

``tests/data/saturation_golden.json`` pins, for a corpus of guarded
programs, the type-transition graph that saturation builds and the
verdicts read off it.  It was recorded from the round-robin saturation
(every type re-swept until nothing changed), so it holds any later
evaluation strategy to the same graph: nodes and edges in the same
order, the same verdicts, methods and witnesses, and the same
database-rooted clouds of the guarded entailment engine.  The work
counters may only shrink: ``table_types`` (every type saturation
registered) and ``pattern_joins`` are recorded as upper bounds.

Regenerate only on purpose, when the graph itself is meant to change::

    PYTHONPATH=src python tests/test_saturation_golden.py --record
"""

import hashlib
import json
import os
import sys

from repro.termination import TransitionGraph, TypeAnalysis, decide_termination
from repro.termination.abstraction import pattern_to_str
from repro.workloads import (
    chain_family,
    diagonal_family,
    guarded_loop_family,
    guarded_tower_family,
    random_database,
    random_guarded,
    random_linear,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "saturation_golden.json")
VARIANTS = ("oblivious", "semi_oblivious")


def corpus():
    """Named guarded programs, in a fixed order."""
    programs = []
    for seed in range(60):
        programs.append((f"random_linear/{seed}", random_linear(
            4, num_predicates=3, max_arity=3, seed=seed)))
        programs.append((f"random_guarded/{seed}", random_guarded(
            4, num_predicates=3, max_arity=3, seed=seed)))
    for seed in range(20):
        programs.append((f"random_guarded_5/{seed}",
                         random_guarded(5, seed=seed)))
    for levels in (1, 2, 3, 4):
        programs.append((f"guarded_tower/{levels}",
                         guarded_tower_family(levels)))
        programs.append((f"guarded_loop/{levels}",
                         guarded_loop_family(levels)))
    for length in (2, 5, 10):
        programs.append((f"chain/{length}", chain_family(length)))
    for arity in (2, 3, 4, 5):
        programs.append((f"diagonal/{arity}", diagonal_family(arity)))
    return programs


def database_corpus():
    """Guarded programs with a concrete database root."""
    cases = []
    for seed in range(6):
        rules = random_guarded(4, num_predicates=3, max_arity=3, seed=seed)
        cases.append((f"random_guarded/{seed}", rules,
                      random_database(rules, seed=seed)))
        rules = random_guarded(5, seed=seed)
        cases.append((f"random_guarded_5/{seed}", rules, random_database(
            rules, num_constants=4, facts_per_predicate=3, seed=seed)))
    for levels in (2, 3):
        rules = guarded_loop_family(levels)
        cases.append((f"guarded_loop/{levels}", rules, random_database(
            rules, facts_per_predicate=3, seed=0)))
    return cases


def graph_text(graph):
    """Each node's ``describe()``, then each edge as (source index,
    target index, rule index, sorted flow, trigger_o, trigger_so), all
    in graph order."""
    constants = graph.analysis.constants
    index = {node: i for i, node in enumerate(graph.nodes)}
    lines = [node.describe(constants) for node in graph.nodes]
    for edge in graph.edges:
        lines.append(repr((
            index[edge.source], index[edge.target], edge.rule_index,
            sorted(edge.flow.items()), sorted(edge.trigger_o),
            sorted(edge.trigger_so),
        )))
    return "\n".join(lines)


def witness_text(witness):
    if witness is None:
        return None
    describe = getattr(witness, "describe", None)
    return describe() if callable(describe) else repr(witness)


def program_record(rules):
    graph = TransitionGraph(TypeAnalysis(rules))
    stats = graph.stats()
    record = {
        "graph_sha256": hashlib.sha256(
            graph_text(graph).encode("utf-8")).hexdigest(),
        "types": stats["types"],
        "edges": stats["edges"],
        "table_types": stats["table_types"],
        "pattern_joins": stats["pattern_joins"],
    }
    for variant in VARIANTS:
        verdict = decide_termination(rules, variant=variant)
        record[variant] = {
            "terminating": verdict.terminating,
            "method": verdict.method,
            "witness": witness_text(verdict.witness),
        }
    return record


def root_cloud(rules, database):
    analysis = TypeAnalysis(rules, database=database)
    cloud = analysis.saturated_cloud(analysis.root)
    return sorted(
        pattern_to_str(p, analysis.num_constants, analysis.constants)
        for p in cloud
    )


def record():
    return {
        "programs": {name: program_record(rules)
                     for name, rules in corpus()},
        "database_roots": {name: root_cloud(rules, database)
                           for name, rules, database in database_corpus()},
    }


def test_transition_graphs_match_the_golden_record():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden["programs"]) == sorted(n for n, _ in corpus())
    for name, rules in corpus():
        expected = dict(golden["programs"][name])
        got = program_record(rules)
        # Work counters are bounds: a leaner fixpoint may do less.
        for counter in ("table_types", "pattern_joins"):
            assert got.pop(counter) <= expected.pop(counter), (name, counter)
        assert got == expected, name


def test_database_root_clouds_match_the_golden_record():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)["database_roots"]
    for name, rules, database in database_corpus():
        assert root_cloud(rules, database) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_saturation_golden.py --record")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
