#!/usr/bin/env bash
# The one command of the end-to-end benchmark: builds bench/e2e into
# build-e2e/ at the repository root (build output goes to stderr), then
# runs it. Arguments pass through to the benchmark; see main.cpp.
#
#   bench/e2e/run.sh --seed 1                       # all workloads
#   bench/e2e/run.sh --workload serve-fleet --seed 3 --seconds 10 --trace 1
#   bench/e2e/run.sh --traced --trace-out trace.json --out result.json
#   bench/e2e/run.sh --smoke                        # 1/10 size
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e -j "$jobs" >&2

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/e2e" --sha "$sha" "$@"
