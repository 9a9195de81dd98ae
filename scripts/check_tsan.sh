#!/usr/bin/env bash
# Build the tree with ThreadSanitizer and run the tests that exercise
# the parallel execution engine: the ThreadPool/parallel_for unit tests,
# the parallel-vs-serial equivalence suite, the statevector kernels
# (including the SIMD dispatch state and the sample-batched register),
# the distributed trainers, the fleet serving runtime (sharded
# queues, mailbox lanes, workers, retry re-routing, per-lane tenant
# arbiters and quota accounting), the open-loop traffic generator, and
# the telemetry time-series layer (Collector thread sampling
# concurrently with per-series writers, watchdog polls). Guards data-race
# freedom — the determinism
# contracts in arbiterq/exec/parallel.hpp and arbiterq/serve/runtime.hpp
# are only meaningful if the disjoint-write claims actually hold under
# TSan.
#
# Usage: scripts/check_tsan.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

tsan_flags="-fsanitize=thread -fno-omit-frame-pointer -g -O1"
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${tsan_flags}" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

targets=(test_exec test_parallel_equivalence test_executor_reference
  test_statevector test_kernels test_batched test_trainers test_serve
  test_shard test_arbiter test_trafficgen test_timeseries test_watchdog)
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

# Force the parallel code paths even on single-core CI hosts.
export ARBITERQ_THREADS=4
for t in "${targets[@]}"; do
  ctest --test-dir "${build_dir}" --output-on-failure -R "^${t}\$"
done

echo "OK: parallel engine and serving runtime are TSan-clean (${targets[*]})"
