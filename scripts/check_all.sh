#!/usr/bin/env bash
# The one-command CI entry: tier-1 build + full ctest in the default
# configuration, then the hardening passes — ThreadSanitizer over the
# parallel engine and serving runtime, AddressSanitizer over the
# exec-plan hot path, and UBSan over the full suite. Each pass uses its
# own build directory, so a warm default build is never poisoned by
# sanitizer flags.
#
# Usage: scripts/check_all.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

echo "==> tier 1: default build + full test suite"
cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

echo "==> tier 2: ThreadSanitizer"
"${repo_root}/scripts/check_tsan.sh"

echo "==> tier 2: AddressSanitizer"
"${repo_root}/scripts/check_asan.sh"

echo "==> tier 2: UndefinedBehaviorSanitizer (full suite)"
"${repo_root}/scripts/check_ubsan.sh"

echo "==> tier 2: live scrape smoke (/timeseries + /dashboard)"
"${repo_root}/scripts/check_scrape_smoke.sh" "${build_dir}"

echo "OK: all checks passed"
