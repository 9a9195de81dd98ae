#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results: parent and head.

Inputs are result files written by `bench/e2e/run.sh --out f.json`, or
the runs of a trajectory file selected by their set label. Bounds and
directions come from BENCHMARK.json at the repository root.

For each (metric, workload) it prints both sides' median and quartiles
and one verdict:

  better      head beats parent by more than the parent's own quartile
              spread and wins at least 9 of 10 pairs (run i vs run i)
  within      head is no worse than parent by more than the bound
  worse       head's median is worse than parent's by more than the bound
  unresolved  parent's own quartile spread exceeds the bound, and not
              every head run beats every parent run

Deterministic metrics must also repeat exactly within each set; a
metric that does not is reported as "det-mismatch". The exit code is 1
on any "worse" or "det-mismatch", 0 otherwise.

  compare.py --parent p1.json p2.json --head h1.json h2.json
  compare.py --trajectory bench/e2e/trajectory.json \\
             --parent-set seed-a --head-set seed-b
  compare.py --append bench/e2e/trajectory.json --set seed-c r1.json r2.json

--append adds result files to a trajectory as runs of one set (the
trajectory is append-only: existing runs are never rewritten).
Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# Nearest-rank ladder shared with the benchmark (harness.cpp).
TAIL_LADDER = (("p99.9", 99.9), ("p99", 99.0), ("p95", 95.0),
               ("p90", 90.0), ("p75", 75.0), ("p50", 50.0))


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def tail_percentile(values):
    """The highest ladder percentile with at least 10 samples beyond it,
    as (label, value), or None when there are fewer than 20 samples."""
    v = sorted(values)
    n = len(v)
    for label, p in TAIL_LADDER:
        k = math.ceil(p / 100.0 * n - 1e-9)
        if k >= 1 and n - k >= 10:
            return label, v[k - 1]
    return None


def spread(values):
    """Quartile spread as a share of the median (absolute at median 0)."""
    q1, med, q3 = quartiles(values)
    width = q3 - q1
    return width / abs(med) if med else width


def worse_by(parent, head, better):
    """How much worse head's median is, as a share of parent's median."""
    mp = statistics.median(parent)
    mh = statistics.median(head)
    delta = mh - mp if better == "lower" else mp - mh
    return delta / abs(mp) if mp else delta


def verdict(parent, head, better, bound):
    def beats(h, p):
        return h < p if better == "lower" else h > p

    if spread(parent) > bound:
        if all(beats(h, p) for h in head for p in parent):
            return "better"
        return "unresolved"
    pairs = list(zip(parent, head))
    wins = sum(1 for p, h in pairs if beats(h, p))
    delta = worse_by(parent, head, better)
    if pairs and -delta > spread(parent) and wins >= 0.9 * len(pairs):
        return "better"
    if delta > bound:
        return "worse"
    return "within"


def repeats_exactly(values):
    return all(v == values[0] for v in values)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_bounds(path=BENCHMARK_JSON):
    spec = load_json(path)
    return {m["name"]: m for m in spec["end_to_end"]}


def results_from(paths, set_label=None):
    """Result documents from result files, or from a trajectory's runs
    whose set matches `set_label`."""
    docs = []
    for path in paths:
        doc = load_json(path)
        if "runs" in doc:
            docs += [r["result"] for r in doc["runs"]
                     if set_label is None or r.get("set") == set_label]
        else:
            docs.append(doc)
    return docs


def collect(docs):
    """{(workload, metric): {"values": [...], "unit", "det", "better"}}
    over the gated metrics and the deterministic details."""
    table = {}
    for doc in docs:
        for wname, w in doc["workloads"].items():
            for section in ("metrics", "detail"):
                for mname, m in w.get(section, {}).items():
                    if section == "detail" and not m.get("det"):
                        continue
                    key = (wname, mname if section == "metrics"
                           else "detail." + mname)
                    row = table.setdefault(key, {
                        "values": [], "unit": m["unit"], "det": m["det"],
                        "better": m["better"]})
                    row["values"].append(m["value"])
    return table


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_docs, head_docs, bounds, out=None):
    """Print the comparison; return {(workload, metric): verdict}."""
    out = out or sys.stdout
    parent = collect(parent_docs)
    head = collect(head_docs)
    results = {}
    print(f"{'workload':<16} {'metric':<34} {'unit':<9} "
          f"{'parent median [q1, q3]':<34} {'head median [q1, q3]':<34} "
          f"{'worse by':>9} {'bound':>6}  verdict", file=out)
    for key in sorted(set(parent) & set(head)):
        wname, mname = key
        p, h = parent[key], head[key]
        if p["det"] and not (repeats_exactly(p["values"])
                             and repeats_exactly(h["values"])):
            v = "det-mismatch"
        elif mname in bounds:
            v = verdict(p["values"], h["values"], p["better"],
                        bounds[mname]["bound"])
        elif p["det"]:
            # Ungated detail: report whether the behaviour changed.
            v = "same" if p["values"][0] == h["values"][0] else "changed"
        else:
            continue
        results[key] = v
        bound = f"{bounds[mname]['bound']:.3g}" if mname in bounds else "-"
        print(f"{wname:<16} {mname:<34} {p['unit']:<9} "
              f"{fmt(p['values']):<34} {fmt(h['values']):<34} "
              f"{worse_by(p['values'], h['values'], p['better']):>+9.4f} "
              f"{bound:>6}  {v}", file=out)
    for key in sorted(set(parent) ^ set(head)):
        print(f"{key[0]:<16} {key[1]:<34} only on one side", file=out)
    return results


def append_runs(trajectory, set_label, paths):
    traj = (load_json(trajectory) if os.path.exists(trajectory)
            else {"schema": 1, "runs": []})
    for path in paths:
        result = load_json(path)
        traj["runs"].append({"set": set_label, "sha": result["sha"],
                             "command": result["command"],
                             "result": result})
    with open(trajectory, "w", encoding="utf-8") as f:
        json.dump(traj, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--head", nargs="+", default=[])
    ap.add_argument("--trajectory")
    ap.add_argument("--parent-set")
    ap.add_argument("--head-set")
    ap.add_argument("--append", metavar="TRAJECTORY")
    ap.add_argument("--set", dest="set_label")
    ap.add_argument("results", nargs="*")
    ap.add_argument("--benchmark", default=BENCHMARK_JSON)
    args = ap.parse_args(argv)

    if args.append:
        if not args.set_label or not args.results:
            ap.error("--append needs --set and result files")
        append_runs(args.append, args.set_label, args.results)
        return 0
    if args.trajectory:
        if not args.parent_set or not args.head_set:
            ap.error("--trajectory needs --parent-set and --head-set")
        parent = results_from([args.trajectory], args.parent_set)
        head = results_from([args.trajectory], args.head_set)
    else:
        parent = results_from(args.parent)
        head = results_from(args.head)
    if not parent or not head:
        ap.error("need at least one parent and one head result")
    verdicts = compare(parent, head, load_bounds(args.benchmark))
    bad = [k for k, v in verdicts.items() if v in ("worse", "det-mismatch")]
    counts = {}
    for v in verdicts.values():
        counts[v] = counts.get(v, 0) + 1
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
