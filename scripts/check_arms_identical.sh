#!/usr/bin/env bash
# End-to-end identity of the two strict kernel arms. Runs the benchmark
# smoke (bench/e2e/run.sh --smoke, all five workloads at 1/10 size)
# under the default arm (AVX2 on a CPU that has it) and under the
# forced-scalar arm (ARBITERQ_SIMD=OFF), then fails unless every
# deterministic metric (det: true) of every workload is equal in the two
# runs. The strict AVX2 arm is specified to be bit-identical to the
# scalar reference, so any difference is a kernel or bind defect.
#
#   scripts/check_arms_identical.sh [out-dir]   # keeps both JSON files
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
cd "$root"

bench/e2e/run.sh --smoke --out "$out/default.json" >/dev/null
ARBITERQ_SIMD=OFF bench/e2e/run.sh --smoke --out "$out/scalar.json" >/dev/null

python3 - "$out/default.json" "$out/scalar.json" <<'PY'
import json
import sys

default, scalar = (json.load(open(path)) for path in sys.argv[1:3])
print(f"arms: default={default['arch']} forced={scalar['arch']}")
if default["arch"] == scalar["arch"]:
    print("note: the default arm is the scalar arm on this host; "
          "the check compares the scalar arm with itself")
if set(default["workloads"]) != set(scalar["workloads"]):
    sys.exit("FAIL: the two runs cover different workloads")
compared = 0
failed = []
for name, work in sorted(default["workloads"].items()):
    other = scalar["workloads"][name]
    for section in ("metrics", "detail"):
        for metric, entry in sorted(work.get(section, {}).items()):
            if not entry.get("det"):
                continue
            compared += 1
            theirs = other.get(section, {}).get(metric, {}).get("value")
            if entry["value"] != theirs:
                failed.append(f"{name} {metric}: {entry['value']!r} "
                              f"(default) != {theirs!r} (scalar)")
for line in failed:
    print("FAIL:", line)
print(f"{compared} deterministic metrics compared, {len(failed)} differ")
sys.exit(1 if failed or compared == 0 else 0)
PY
