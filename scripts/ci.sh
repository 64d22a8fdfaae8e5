#!/usr/bin/env bash
# Tier-1 CI entrypoint: byte-compile the package, import/dead-store lint,
# the fast test profile, standalone parity/pin smokes, the perfbench
# harness tests, then the
# src/repro/{core,crowd,analysis,durability,shard,service} line-coverage
# floors (stdlib settrace tracer over the deterministic test files — the
# container ships no coverage.py).
# (pytest.ini deselects the slow benchmark/experiment regenerations; run
# `pytest -m ""` for the full matrix).
set -euo pipefail
cd "$(dirname "$0")/.."

python -m compileall -q src
# ruff.toml selects F401/F811/F841; the stdlib fallback enforces the same
# rules when no ruff binary is installed.
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    python scripts/import_hygiene.py
fi
python -m pytest -q
# Shard parity smoke: one differential seed per strategy must reproduce
# the unsharded session trace bit-for-bit (the full 15-combination matrix
# runs in the plain pass above; this re-runs the three seed-0 traces
# standalone so a sharding regression is named in the CI log), and so
# must the seed-0 crowd rounds ranked by information gain.
python -m pytest -q "tests/test_shard_equivalence.py::TestTraceEquivalence::test_sharded_trace_bit_identical" -k "0-"
python -m pytest -q "tests/test_shard_equivalence.py::TestTraceEquivalence::test_sharded_crowd_ig_trace_bit_identical[0]"
# Gain pin: the information-gain kernel against its frozen legacy copy
# (tobytes-identical gains), standalone so a kernel regression is named.
python -m pytest -q tests/test_ig_kernel_pin.py
# Hash-seed independence: triangles come from intersecting string sets, so
# the compiled violation order (pinned against the legacy enumerators) and
# the golden traces must not depend on PYTHONHASHSEED.
for hash_seed in 0 4242; do
    PYTHONHASHSEED=$hash_seed python -m pytest -q \
        tests/test_cycle_order_pin.py tests/test_golden*.py
done
# The end-to-end benchmark's own toy-size tests: a src/ change that breaks
# the benchmark harness (an API it drives, a correctness gate) fails here.
python -m pytest -q perfbench
# Durability: crash at every round boundary of a seeded crowd run, recover
# from checkpoint + journal, require a bit-identical final trace.
python scripts/chaos_smoke.py
# The traced floor re-runs the deterministic core test files; the overlap
# with the plain pass above is deliberate — the plain pass is the exact
# tier-1 gate profile (all tests, no tracer), the floor is a coverage
# measurement, and neither substitutes for the other.
python scripts/coverage_floor.py --min 85
