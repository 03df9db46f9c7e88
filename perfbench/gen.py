"""Seeded workload inputs, owned by the benchmark.

Every rule, database, query and HTTP request text the benchmark feeds
the program is generated here from the ``--seed`` argument alone, and
written to disk before any worker starts.  Randomness comes from
``derive(seed, *labels)``, which hashes the ``repr`` of integers and
ASCII labels with SHA-256, so the same seed yields byte-identical
inputs in every interpreter process (``hash()`` of strings is salted
per process and is never used).

Sizes are fixed counts, not functions of host speed, so a faster
program never gets a bigger input.  Shapes are stratified: the seed
picks the random details (rule bodies, data values, key skew, order),
while the mix of shapes and size bands is fixed, which keeps the
per-op cost distribution of one op type the same from seed to seed.

Run ``python3 perfbench/gen.py --seed N --out DIR`` to write one input
set; ``test_perfbench_inputs.py`` checks that two processes agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from typing import Dict, List

#: Op counts per workload at ``scale=1``.  A run executes exactly
#: these many ops; the scale only changes with ``--seconds``.
MATERIALIZE_OPS = 100
SERVE_OPS = 2400

#: Share of each serve op type in the schedule.  No measured or cited
#: usage exists for the query server, so this mix (like the lookup key
#: skew in :func:`serve_inputs`) is an unverified assumption.  Each
#: type gets fewer than 1000 ops per run, so its tail is the p95 (>=10
#: samples beyond).
SERVE_MIX = (("write", 0.2), ("lookup", 0.4), ("scan", 0.4))


def derive(seed: int, *labels) -> random.Random:
    """An RNG keyed by ``seed`` and ``labels`` (ints and ASCII strings),
    stable across processes and platforms."""
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- decide: rule sets for ``repro check`` ----------------------------------


def _atom(pred: str, terms) -> str:
    return f"{pred}({', '.join(terms)})"


def _rule(body: List[str], head: List[str], existentials: List[str]) -> str:
    exists = f"exists {', '.join(existentials)} . " if existentials else ""
    return f"{', '.join(body)} -> {exists}{', '.join(head)}"


def _random_rules(rng: random.Random, tag: str, shape: str, n_rules: int,
                  n_preds: int, max_arity: int, repeat_prob: float) -> List[str]:
    """A random rule set over predicates private to this rule set
    (``tag`` prefixes them), so no two rule sets of a run share cached
    decider state.  Built like ``random_simple_linear`` and
    ``random_linear`` (a body variable repeats an earlier one with
    ``repeat_prob``) or ``random_guarded`` (a guard atom over every
    body variable, plus at most one side atom) in
    ``repro.workloads.generators``; a head position is existential with
    probability 0.5."""
    arities = [rng.randint(1, max_arity) for _ in range(n_preds)]
    preds = [f"{tag}p{i}" for i in range(n_preds)]
    lines = []
    for _ in range(n_rules):
        if shape == "guarded":
            guard = rng.choice([i for i in range(n_preds)
                                if arities[i] == max(arities)])
            body_vars = [f"X{j + 1}" for j in range(arities[guard])]
            body = [_atom(preds[guard], body_vars)]
            for _ in range(rng.randint(0, 1)):
                side = rng.choice([i for i in range(n_preds)
                                   if arities[i] <= len(body_vars)])
                body.append(_atom(preds[side],
                                  rng.sample(body_vars, arities[side])))
        else:
            pred = rng.randrange(n_preds)
            body_vars = []
            for j in range(arities[pred]):
                if body_vars and rng.random() < repeat_prob:
                    body_vars.append(rng.choice(body_vars))
                else:
                    body_vars.append(f"X{j + 1}")
            body = [_atom(preds[pred], body_vars)]
        distinct = sorted(set(body_vars))
        head_pred = rng.randrange(n_preds)
        head_terms, existentials = [], []
        for _ in range(arities[head_pred]):
            if rng.random() >= 0.5:
                head_terms.append(rng.choice(distinct))
            else:
                existentials.append(f"Z{len(existentials) + 1}")
                head_terms.append(existentials[-1])
        lines.append(_rule(body, [_atom(preds[head_pred], head_terms)],
                           existentials))
    return lines


def _shift(src: str, dst: str, arity: int) -> str:
    xs = [f"X{j + 1}" for j in range(arity)]
    return _rule([_atom(src, xs)], [_atom(dst, xs[1:] + ["Z"])], ["Z"])


def _family(name: str, size: int, tag: str, pad: int = 0):
    """A parametric family instance of ``repro.workloads.families``:
    ``(class, rule lines, expected semi-oblivious verdict)``.  The
    verdicts hold by construction.  ``pad`` appends a terminating chain
    of that many shift rules over predicates of its own, which adds
    decider work in small steps without changing the verdict."""
    cls, lines, expect = _family_rules(name, size, tag)
    lines += [_shift(f"{tag}x{i}", f"{tag}x{i + 1}", 2) for i in range(pad)]
    return cls, lines, expect


def _family_rules(name: str, size: int, tag: str):
    p = lambda i: f"{tag}p{i}"  # noqa: E731
    if name == "chain":
        return ("simple_linear",
                [_shift(p(i), p(i + 1), 2) for i in range(size)], True)
    if name == "shifting":
        return "simple_linear", [_shift(p(0), p(0), size)], False
    if name == "diagonal":
        xs = ["X"] * size
        return "linear", [_rule([_atom(p(0), xs)],
                                [_atom(p(0), ["Z"] + xs[1:])], ["Z"])], True
    if name in ("tower", "loop"):
        lines = []
        for i in range(size):
            lines.append(_rule(
                [_atom(f"{tag}r{i}", ["X", "Y"]), _atom(f"{tag}m{i}", ["Y"])],
                [_atom(f"{tag}r{i + 1}", ["Y", "Z"]),
                 _atom(f"{tag}m{i + 1}", ["Z"])], ["Z"]))
        if name == "loop":
            lines.append(_rule(
                [_atom(f"{tag}r{size}", ["X", "Y"]),
                 _atom(f"{tag}m{size}", ["Y"])],
                [_atom(f"{tag}r0", ["Y", "Z"]), _atom(f"{tag}m0", ["Z"])],
                ["Z"]))
        return "guarded", lines, name == "tower"
    raise ValueError(f"unknown family {name!r}")


#: The decide corpus is the rule sets that the repository's decider
#: experiments (``benchmarks/test_e1..e5`` and ``test_e11``) pass to
#: the deciders: their shapes, their size parameters and the share of
#: each shape among their 207 rule sets, each count taken 2.4 times
#: (493 rule sets: the p95 then has 24 ops beyond it, and moves less
#: with the seed than the p95 of 329 did).  No op repeats a rule set.
#: A random stratum cycles through its experiment's rule, predicate and
#: arity counts (``(base, period)`` gives ``base + k % period`` for the
#: k-th set); a family cycles through its experiment's parameters, and
#: each further pass adds one more padding rule, so that repeats differ
#: in cost by a small step (see :func:`_family`).  E3 also times chains
#: of 40 and 80 rules; they are left out because the forced guarded
#: procedure of the correctness check takes 2.6 s and 25 s on them.
RANDOM_STRATA = (
    # class, rule sets, rules, predicates, max arity, repeat probability
    ("simple_linear", 96, (2, 5), (2, 3), (2, 2), 0.0),  # E1: 40 sets
    ("simple_linear", 108, (3, 3), (4, 1), (3, 1), 0.0),  # E5, E11: 45
    ("linear", 72, (2, 4), (2, 3), (2, 2), 0.6),  # E2: 30
    ("linear", 96, (3, 3), (4, 1), (3, 1), 0.5),  # E5, E11: 40
    ("guarded", 64, (2, 3), (4, 1), (3, 1), 0.0),  # E5, E11: 27
)
FAMILY_STRATA = (
    # family, rule sets, parameters
    ("diagonal", 9, (2, 3, 4, 5)),  # E2: 4 sets
    ("chain", 21, (2, 4, 5, 8, 10, 16, 20)),  # E3: 9
    ("shifting", 9, (2, 3, 4, 5)),  # E3: 4
    ("tower", 9, (1, 2, 3, 4)),  # E4: 4
    ("loop", 9, (1, 2, 3, 4)),  # E4: 4
)


def decide_corpus(seed: int, scale: float = 1.0) -> List[Dict]:
    """Distinct rule sets for the ``decide`` loop, in seeded order."""
    items = []
    strata = RANDOM_STRATA + FAMILY_STRATA
    for stratum, (shape, count, *params) in enumerate(strata):
        for k in range(max(1, round(count * scale))):
            rng = derive(seed, "decide", stratum, k)
            tag = f"s{stratum}k{k}_"
            if stratum < len(RANDOM_STRATA):
                rules, preds, arity, repeat_prob = params
                cls, expect, name = shape, None, "random_" + shape
                lines = _random_rules(
                    rng, tag, shape, n_rules=rules[0] + k % rules[1],
                    n_preds=preds[0] + k % preds[1],
                    max_arity=arity[0] + k % arity[1],
                    repeat_prob=repeat_prob)
            else:
                sizes, name = params[0], shape
                cls, lines, expect = _family(shape, sizes[k % len(sizes)],
                                             tag, pad=k // len(sizes))
            items.append({"shape": name, "cls": cls, "expect": expect,
                          "rules": "\n".join(lines) + "\n"})
    derive(seed, "decide", "order").shuffle(items)
    for index, item in enumerate(items):
        item["id"] = f"d{index:04d}"
    return items


# -- materialize: guarded-ontology databases for ``repro query`` -----------


def _tower_rules(levels: int, tag: str) -> str:
    return "\n".join(_rule(
        [_atom(f"{tag}r{i}", ["X", "Y"]), _atom(f"{tag}m{i}", ["Y"])],
        [_atom(f"{tag}r{i + 1}", ["Y", "Z"]), _atom(f"{tag}m{i + 1}", ["Z"])],
        ["Z"]) for i in range(levels)) + "\n"


#: Depth band and the per-op fact budget: roots are chosen so that
#: ``roots * depth`` spreads evenly over 0.5-1.5x ``MATERIALIZE_WORK``.
#: The shape is E4's ``guarded_tower_family``; the band is an assumption
#: around one measured op of 8 levels x 300 roots.
#: The cost distribution is unimodal and wide, so its p50 moves
#: smoothly with the host's speed phases instead of jumping between
#: them.
MATERIALIZE_DEPTHS = (6, 7, 8, 9, 10)
MATERIALIZE_WORK = 1200


def materialize_cases(seed: int, scale: float = 1.0) -> List[Dict]:
    """Guarded-tower databases and their query, one per op.  Every
    case has predicates of its own (``tag`` prefixes them), so no op
    finds its join plans in the process-wide plan caches warmed by an
    earlier one: a ``repro query`` user always plans cold."""
    count = max(1, round(MATERIALIZE_OPS * scale))
    cases = []
    for k in range(count):
        rng = derive(seed, "materialize", k)
        tag = f"t{k}_"
        depth = MATERIALIZE_DEPTHS[k % len(MATERIALIZE_DEPTHS)]
        # Evenly spread factors keep every seed's mix of sizes the same.
        factor = 0.5 + ((k * 7) % count) / max(1, count - 1)
        roots = max(4, round(MATERIALIZE_WORK * factor / depth))
        facts = []
        for i in range(roots):
            facts.append(f"{tag}r0(a{i}, b{i})")
            facts.append(f"{tag}m0(b{i})")
            if rng.random() < 0.25:  # a second parent: shared subtrees
                facts.append(f"{tag}r0(a{rng.randrange(roots)}, b{i})")
            if rng.random() < 0.1:  # level 1 already satisfied
                facts.append(f"{tag}r1(b{i}, s{i})")
                facts.append(f"{tag}m1(s{i})")
        rng.shuffle(facts)
        query = f"q(X) :- {tag}r0(X, Y), {tag}r1(Y, Z)"
        cases.append({"id": f"m{k:04d}", "depth": depth, "roots": roots,
                      "rules": _tower_rules(depth, tag),
                      "db": "\n".join(facts) + "\n", "query": query})
    derive(seed, "materialize", "order").shuffle(cases)
    return cases


# -- serve: a data-exchange resident and its HTTP schedule ------------------

SERVE_RULES = """\
dept(D) -> exists K . dkey(D, K)
emp(X, D), dkey(D, K) -> works(X, K)
dkey(D, K) -> exists O . office(K, O)
works(X, K), office(K, O) -> located(X, O)
"""

#: Resident size: departments with 50 to 250 employees, evenly spread
#: (150 on average, the scan size).  Like the 1 to 5 fresh employees of
#: a write (each adds ``emp``, ``works`` and ``located`` facts), the
#: spread keeps each op type's cost distribution wide and unimodal, so
#: its p50 moves smoothly with the host's speed phases.
SERVE_DEPTS = 24
SERVE_DEPT_SIZES = tuple(50 + round(200 * j / (SERVE_DEPTS - 1))
                         for j in range(SERVE_DEPTS))
SERVE_WRITE_FACTS = (1, 5)
#: A run is this many consecutive segments; each cold-starts its own
#: workers and server (the server from the same base facts), so every
#: run has several cold starts to take the setup time from.
SEGMENTS = 4
#: Untimed reads before each segment's schedule: a long-running server
#: pays its first-request costs once, not per request.
SERVE_WARMUP = (
    {"path": "/query", "body": {"query": "q(O) :- located(e0x0, O)"}},
    {"path": "/query", "body": {"query": "q(X, O) :- emp(X, d0), "
                                         "located(X, O)"}},
)


def serve_inputs(seed: int, scale: float = 1.0) -> Dict:
    """The resident's base facts and a fixed request schedule.  Every
    request carries what a correct response must report: the answer
    count of a query, or the new-fact count of a write."""
    rng = derive(seed, "serve", "base")
    facts = [f"dept(d{j})" for j in range(SERVE_DEPTS)]
    employees = []
    for j, size in enumerate(SERVE_DEPT_SIZES):
        for i in range(size):
            employees.append(f"e{j}x{i}")
            facts.append(f"emp(e{j}x{i}, d{j})")
    rng.shuffle(facts)
    per_segment = max(len(SERVE_MIX), round(SERVE_OPS * scale
                                             / SEGMENTS))
    schedule = []
    fresh = 0
    for segment in range(SEGMENTS):
        kinds = []
        for kind, share in SERVE_MIX:
            kinds += [kind] * max(1, round(per_segment * share))
        srng = derive(seed, "serve", "schedule", segment)
        srng.shuffle(kinds)
        sizes = list(SERVE_DEPT_SIZES)
        for kind in kinds:
            if kind == "write":
                new = []
                for _ in range(srng.randint(*SERVE_WRITE_FACTS)):
                    dept = srng.randrange(SERVE_DEPTS)
                    sizes[dept] += 1
                    new.append(f"emp(n{fresh}, d{dept})")
                    fresh += 1
                request = {"path": "/facts", "body": {"facts": new},
                           "expect": 3 * len(new)}
            elif kind == "lookup":
                # Zipf-like skew over the base employees (an assumption).
                rank = min(int(srng.paretovariate(1.2)) - 1,
                           len(employees) - 1)
                who = employees[(rank * 7919) % len(employees)]
                request = {"path": "/query", "expect": 1, "body": {
                    "query": f"q(O) :- located({who}, O)"}}
            else:
                dept = srng.randrange(SERVE_DEPTS)
                request = {"path": "/query", "expect": sizes[dept],
                           "body": {"query": f"q(X, O) :- emp(X, d{dept}), "
                                             f"located(X, O)"}}
            request.update(op=kind, segment=segment, seq=len(schedule))
            schedule.append(request)
    return {"rules": SERVE_RULES, "db": "\n".join(facts) + "\n",
            "schedule": schedule}


# -- files ------------------------------------------------------------------


def write_inputs(seed: int, out: str, scale: float = 1.0) -> Dict:
    """Write every input text of one run under ``out``; returns the
    manifest (also written as ``manifest.json``)."""
    manifest = {"seed": seed, "scale": scale, "decide": [],
                "materialize": [], "serve": {}}
    for sub in ("decide", "materialize", "serve"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)

    def put(rel: str, text: str) -> str:
        path = os.path.join(out, rel)
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
        return rel

    for item in decide_corpus(seed, scale):
        entry = {k: item[k] for k in ("id", "shape", "cls", "expect")}
        entry["rules"] = put(f"decide/{item['id']}.tgd", item["rules"])
        manifest["decide"].append(entry)
    for case in materialize_cases(seed, scale):
        entry = {k: case[k] for k in ("id", "depth", "roots", "query")}
        entry["rules"] = put(f"materialize/{case['id']}.tgd", case["rules"])
        entry["db"] = put(f"materialize/{case['id']}.facts", case["db"])
        manifest["materialize"].append(entry)
    serve = serve_inputs(seed, scale)
    manifest["serve"] = {
        "rules": put("serve/rules.tgd", serve["rules"]),
        "db": put("serve/base.facts", serve["db"]),
        "schedule": put("serve/schedule.jsonl", "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in serve["schedule"])),
    }
    put("manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    write_inputs(args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
