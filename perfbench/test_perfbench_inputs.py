"""The benchmark's inputs depend on its seed alone.

Two fresh interpreters with different string-hash salts must write
byte-identical input files for the same seed; another seed must give
other inputs.
"""

import filecmp
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _generate(tmp_path, name, seed, hash_seed):
    out = tmp_path / name
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed),
         "--out", str(out), "--scale", "0.2"],
        check=True, env=env, timeout=120,
    )
    return out


def _files(root):
    found = []
    for folder, _, names in os.walk(root):
        found += [os.path.relpath(os.path.join(folder, n), root)
                  for n in names]
    return sorted(found)


def test_same_seed_gives_identical_bytes_across_processes(tmp_path):
    first = _generate(tmp_path, "a", seed=7, hash_seed=1)
    second = _generate(tmp_path, "b", seed=7, hash_seed=2)
    names = _files(first)
    assert names == _files(second)
    assert len(names) > 10
    match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                               shallow=False)
    assert mismatch == [] and errors == []


def test_other_seed_gives_other_inputs(tmp_path):
    first = _generate(tmp_path, "a", seed=7, hash_seed=1)
    other = _generate(tmp_path, "c", seed=8, hash_seed=1)
    _, mismatch, _ = filecmp.cmpfiles(first, other, _files(first),
                                      shallow=False)
    assert "serve/schedule.jsonl" in mismatch
    assert any(name.startswith("decide/") for name in mismatch)
