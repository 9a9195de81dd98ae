"""Tests for compare.py. Run from bench/e2e: python3 -m unittest"""

import contextlib
import io
import json
import os
import statistics
import tempfile
import unittest

import compare


def doc(workload, metrics, detail=None):
    """A minimal result document."""
    return {"sha": "abc", "command": "run.sh --seed 1",
            "workloads": {workload: {"metrics": metrics,
                                     "detail": detail or {}}}}


def metric(value, better="lower", det=False, unit="ms"):
    return {"value": value, "unit": unit, "better": better, "det": det}


BOUNDS = {"unit_ms": {"name": "unit_ms", "bound": 0.10},
          "loss_mse": {"name": "loss_mse", "bound": 0.05},
          "ok_frac": {"name": "ok_frac", "bound": 0.02}}


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(compare.tail_percentile(list(range(19))))
        # 20 samples: p50 is rank 10 with 10 beyond.
        self.assertEqual(compare.tail_percentile(list(range(1, 21))),
                         ("p50", 10))

    def test_climbs_the_ladder_with_more_samples(self):
        values = list(range(1, 101))
        self.assertEqual(compare.tail_percentile(values), ("p90", 90))
        values = list(range(1, 1001))
        self.assertEqual(compare.tail_percentile(values), ("p99", 990))
        values = list(range(1, 10001))
        self.assertEqual(compare.tail_percentile(values), ("p99.9", 9990))

    def test_order_does_not_matter(self):
        values = list(range(1, 101))
        self.assertEqual(compare.tail_percentile(values[::-1]), ("p90", 90))


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        for values in ([1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0, 4.0, 8.0, 16.0],
                       [0.5 * i for i in range(17)]):
            self.assertEqual(compare.quartiles(values),
                             tuple(statistics.quantiles(values, n=4)))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_relative_to_the_median(self):
        # Quartiles 9.5 and 10.5 around a median of 10.
        self.assertAlmostEqual(compare.spread([9.0, 10.0, 10.0, 10.0, 11.0]),
                               0.1)
        self.assertEqual(compare.spread([4.0, 4.0, 4.0]), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.0, 10.02, 9.98]

    def test_within_bound(self):
        head = [x * 1.05 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, head, "lower", 0.10),
                         "within")

    def test_worse(self):
        head = [x * 1.2 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, head, "lower", 0.10),
                         "worse")

    def test_worse_for_higher_is_better(self):
        head = [x * 0.8 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, head, "higher", 0.10),
                         "worse")

    def test_better_needs_nine_of_ten_pairs(self):
        head = [x * 0.8 for x in self.parent]
        self.assertEqual(compare.verdict(self.parent, head, "lower", 0.10),
                         "better")
        mixed = [x * 0.8 for x in self.parent]
        mixed[0] = mixed[1] = 11.0
        self.assertEqual(compare.verdict(self.parent, mixed, "lower", 0.10),
                         "within")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0]
        head = [x * 0.98 for x in noisy]
        self.assertEqual(compare.verdict(noisy, head, "lower", 0.10),
                         "unresolved")

    def test_noisy_parent_still_loses_to_a_clear_win(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
        head = [5.0, 5.5, 6.0, 5.2, 5.1]
        self.assertEqual(compare.verdict(noisy, head, "lower", 0.10),
                         "better")

    def test_identical_deterministic_values_are_within(self):
        same = [0.25] * 3
        self.assertEqual(compare.verdict(same, same, "lower", 0.05), "within")


class CompareTest(unittest.TestCase):
    def run_compare(self, parent, head):
        out = io.StringIO()
        return compare.compare(parent, head, BOUNDS, out=out), out.getvalue()

    def test_deterministic_metric_must_repeat_exactly(self):
        parent = [doc("w", {"loss_mse": metric(0.25, det=True)}),
                  doc("w", {"loss_mse": metric(0.25000001, det=True)})]
        head = [doc("w", {"loss_mse": metric(0.25, det=True)})] * 2
        verdicts, _ = self.run_compare(parent, head)
        self.assertEqual(verdicts[("w", "loss_mse")], "det-mismatch")

    def test_repeating_deterministic_metric_is_within(self):
        runs = [doc("w", {"loss_mse": metric(0.25, det=True)})] * 3
        verdicts, _ = self.run_compare(runs, runs)
        self.assertEqual(verdicts[("w", "loss_mse")], "within")

    def test_detail_reports_changes_without_a_bound(self):
        parent = [doc("w", {}, {"converge_epoch": metric(16, det=True)})] * 2
        head = [doc("w", {}, {"converge_epoch": metric(17, det=True)})] * 2
        verdicts, _ = self.run_compare(parent, head)
        self.assertEqual(verdicts[("w", "detail.converge_epoch")], "changed")

    def test_timed_details_are_skipped(self):
        runs = [doc("w", {}, {"epoch_ms": metric(1.0)})] * 2
        verdicts, _ = self.run_compare(runs, runs)
        self.assertEqual(verdicts, {})

    def test_prints_medians_and_quartiles(self):
        parent = [doc("w", {"unit_ms": metric(v)}) for v in (1.0, 2.0, 3.0)]
        head = [doc("w", {"unit_ms": metric(v)}) for v in (1.0, 2.0, 3.0)]
        verdicts, text = self.run_compare(parent, head)
        self.assertIn("2 [1, 3]", text)
        self.assertEqual(verdicts[("w", "unit_ms")], "unresolved")


class TrajectoryTest(unittest.TestCase):
    def test_append_then_select_by_set(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, v in enumerate((1.0, 1.1)):
                p = os.path.join(tmp, f"r{i}.json")
                with open(p, "w") as f:
                    json.dump(doc("w", {"unit_ms": metric(v)}), f)
                paths.append(p)
            traj = os.path.join(tmp, "trajectory.json")
            compare.append_runs(traj, "a", paths[:1])
            compare.append_runs(traj, "b", paths[1:])
            with open(traj) as f:
                self.assertEqual([r["set"] for r in json.load(f)["runs"]],
                                 ["a", "b"])
            head = compare.results_from([traj], "b")
            self.assertEqual(
                head[0]["workloads"]["w"]["metrics"]["unit_ms"]["value"], 1.1)

    def test_main_exits_nonzero_on_worse(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump({"end_to_end": list(BOUNDS.values())}, f)
            files = {}
            for name, v in (("p", 1.0), ("h", 1.5)):
                files[name] = os.path.join(tmp, name + ".json")
                with open(files[name], "w") as f:
                    json.dump(doc("w", {"unit_ms": metric(v)}), f)
            with open(os.devnull, "w") as sink:
                with contextlib.redirect_stdout(sink):
                    rc = compare.main(["--parent", files["p"], "--head",
                                       files["h"], "--benchmark", bench])
            self.assertEqual(rc, 1)


if __name__ == "__main__":
    unittest.main()
