#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml — same commands, same
# order, on whatever interpreter `python` resolves to.  The lint job
# is skipped (with a warning) when ruff isn't installed; everything
# else is mandatory.  Exits non-zero on the first failure, like CI.
#
# Usage: bash ci/local_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q tests

echo "== tier-1 tests without NumPy (pure-Python kernels) =="
REPRO_NO_NUMPY=1 PYTHONPATH=src python -m pytest -x -q tests

echo "== paper-experiment suite (E1-E11) =="
PYTHONPATH=src python -m pytest -x -q benchmarks \
    --ignore=benchmarks/test_perf_smoke.py

echo "== fault-injection suite =="
PYTHONPATH=src python -m pytest -x -q tests/test_runtime_faults.py

echo "== checkpoint/resume round trip =="
PYTHONPATH=src python ci/check_resume.py

echo "== query-server smoke (incremental ingest over HTTP) =="
PYTHONPATH=src python ci/check_serve.py

echo "== crash-recovery chaos harness (WAL replay round trip) =="
PYTHONPATH=src python ci/check_chaos.py

echo "== bench harness smoke =="
PYTHONPATH=src python -m pytest -x -q benchmarks/test_perf_smoke.py

echo "== perfbench tests =="
PYTHONPATH=src python -m pytest -x -q perfbench

echo "== bench regression gate =="
PYTHONPATH=src python benchmarks/bench_perf.py \
    --scale 0.25 --check BENCH_chase.json

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "ruff not installed; skipping lint (CI will run it)"
fi

echo "ci/local_check.sh: all checks passed"
