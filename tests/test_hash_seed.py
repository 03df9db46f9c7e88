"""``repro check`` output must not depend on the string-hash salt.

Python salts ``str`` hashing per process, so any decider that walks a
set or frozenset of rules' variables, predicates or bag types in
iteration order can print a different witness in every run.  Each of
four interpreters, under ``PYTHONHASHSEED`` 0-3, decides the same
generator corpus (simple-linear, linear and guarded programs of 4
rules, 3 predicates, arity at most 3, seeds 0-149, under the oblivious
and semi-oblivious chase) and prints ``verdict.explain()``, which is
what ``repro check`` prints; the four outputs must be byte-identical.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

SCRIPT = """
from repro.termination import decide_termination
from repro.workloads import (
    random_guarded, random_linear, random_simple_linear,
)
for generate in (random_simple_linear, random_linear, random_guarded):
    for seed in range(150):
        rules = generate(4, num_predicates=3, max_arity=3, seed=seed)
        for variant in ("oblivious", "semi_oblivious"):
            verdict = decide_termination(rules, variant=variant)
            print(generate.__name__, seed, variant)
            print(verdict.explain())
"""


def test_check_output_is_identical_under_every_hash_seed():
    runs = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=SRC)
        runs.append(subprocess.Popen(
            [sys.executable, "-c", SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for proc in runs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert outputs[0].count("\n") > 900 * 2
    for hash_seed, out in enumerate(outputs[1:], start=1):
        assert out == outputs[0], f"PYTHONHASHSEED={hash_seed} differs"
