#!/usr/bin/env bash
# Build the tree with AddressSanitizer + UBSan and run the tests that
# exercise the compiled-execution-plan hot path: the ExecPlan/Workspace
# suite, the adjoint engine, the simulator and statevector kernels, the
# SIMD apply/bracket kernels and the sample-batched register, the
# parallel equivalence suite, the noise-model validation that keeps NaN
# out of the trajectory sampler's survival table, and the time-series store
# (ring eviction keeps handing out live window references). Guards the
# plan's zero-allocation steady-state claim — workspace reuse across
# bind/apply/adjoint walks
# must not hide use-after-free, out-of-bounds table indexing, or
# mismatched lifetimes when plans are rebuilt by recalibrate().
#
# Usage: scripts/check_asan.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

asan_flags="-fsanitize=address,undefined -fno-omit-frame-pointer -g -O1"
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${asan_flags}" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

targets=(test_exec_plan test_adjoint test_simulator test_statevector
  test_kernels test_batched test_noise_model test_parallel_equivalence
  test_executor_reference test_arbiter test_trafficgen test_timeseries
  test_watchdog)
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

# Promote UBSan findings to hard failures; keep ASan strict about leaks.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
for t in "${targets[@]}"; do
  ctest --test-dir "${build_dir}" --output-on-failure -R "^${t}\$"
done

echo "OK: exec-plan hot path is ASan/UBSan-clean (${targets[*]})"
