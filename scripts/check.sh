#!/usr/bin/env bash
# One-command tier-1 verify: configure + build + ctest + the JSON perf
# benches. Extra arguments are forwarded to the CMake configure step, e.g.
#   scripts/check.sh -DCIMNAV_NATIVE_OPT=OFF
# Bench results land in BENCH_micro.json / BENCH_compute_reuse.json /
# BENCH_closed_loop.json / BENCH_wakeup.json at the repository root so the
# perf trajectory can be compared across PRs.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

# Backend conformance sweep depth (tests/conformance/): "quick" is the CI
# tier; nightly jobs export CIMNAV_CONFORMANCE_TIER=full for the larger
# geometry set.
export CIMNAV_CONFORMANCE_TIER="${CIMNAV_CONFORMANCE_TIER:-quick}"

cmake -B build -S . "$@"
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure --no-tests=error -j"${JOBS}"

./build/bench_micro
./build/bench_compute_reuse
./build/bench_fig4_closed_loop
./build/bench_fig5_wakeup
./build/bench_fleet

# Perf-trajectory gate: tracked summary metrics (within-run speedup ratios
# and deterministic workload counts) must stay within 20% of the committed
# baselines under bench/baselines/.
python3 scripts/bench_diff.py

# Doc-coverage gate: every bench_fig* binary and every src/ subsystem must
# be mentioned in README.md / docs/architecture.md.
python3 scripts/check_docs.py

echo "check.sh: build, tests, benches, perf gate and doc gate all passed"
