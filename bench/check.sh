#!/usr/bin/env bash
# Harness self-check for CI: the unit test, then every workload at its
# minimum op count with all output checks on.  Not wired into
# .github/workflows/ci.yml yet; a later PR can call it from there.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH=src python3 -m pytest -q bench/test_bench_harness.py
python3 bench/run.py --smoke
