#!/usr/bin/env python3
"""Self-test of compare.py on synthetic results: python3 benchmark/test_compare.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "joins_per_s": ("joins/s", "higher", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "sim.device_ops": ("count", "lower", None),
}


def run(workload, seed, metrics, digest="00000000000000aa", trace=False):
    provenance = {"workload": workload, "seed": seed, "smoke": False, "trace": trace,
                  "sim_digest": digest}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": SPEC[k][0]} for k, v in metrics.items()}}
    return provenance, result


def side(values, name="joins_per_s", workload="paper_sweep", digest="00000000000000aa"):
    return [run(workload, seed, {name: v}, digest) for seed, v in enumerate(values, 1)]


def label(old, new, name="joins_per_s"):
    rows, problems = compare.compare(side(old, name), side(new, name), SPEC)
    assert not problems, problems
    return rows[0]["label"]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class ClassifyTest(unittest.TestCase):
    def test_identical_sides_are_unchanged(self):
        self.assertEqual(label(BASE, BASE), "unchanged")

    def test_small_noise_within_bound_is_unchanged(self):
        self.assertEqual(label(BASE, [v * 0.98 for v in BASE[::-1]]), "unchanged")

    def test_clear_gain_is_improved(self):
        self.assertEqual(label(BASE, [v * 1.2 for v in BASE]), "improved")

    def test_gain_needs_nine_of_ten_pairs(self):
        # Medians move by more than the spread, but only 8 of 10 pairs win.
        new = [v * 1.2 for v in BASE[:8]] + [v * 0.9 for v in BASE[8:]]
        self.assertNotEqual(label(BASE, new), "improved")

    def test_loss_beyond_bound_is_regressed(self):
        self.assertEqual(label(BASE, [v * 0.85 for v in BASE]), "regressed")

    def test_lower_is_better_direction(self):
        old = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(label(old, [v * 1.5 for v in old], "setup_s"), "regressed")
        self.assertEqual(label(old, [v * 0.5 for v in old], "setup_s"), "improved")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0]
        self.assertEqual(label(BASE, noisy), "unresolved")

    def test_wide_spread_resolved_when_every_new_run_is_better(self):
        # Both spreads exceed the 10% bound, yet every new run beats every
        # old one and the medians move by less than the old spread: this
        # is no regression, and not an improvement either.
        old = [60.0, 70.0, 65.0, 62.0, 68.0]
        new = [71.0, 95.0, 72.0, 90.0, 73.0]
        self.assertEqual(label(old, new), "unchanged")

    def test_per_layer_metric_without_bound(self):
        old = [1000.0] * 5
        self.assertEqual(label(old, old, "sim.device_ops"), "unchanged")
        self.assertEqual(label(old, [2000.0] * 5, "sim.device_ops"), "regressed")


class CompareTest(unittest.TestCase):
    def test_too_few_runs_is_a_problem(self):
        _, problems = compare.compare(side(BASE[:4]), side(BASE[:4]), SPEC)
        self.assertTrue(any("need at least" in p for p in problems))

    def test_digest_change_is_a_behaviour_change(self):
        _, problems = compare.compare(side(BASE), side(BASE, digest="00000000000000bb"), SPEC)
        self.assertTrue(any(p.startswith("behaviour change") for p in problems))

    def test_traced_and_untraced_runs_are_separate_cells(self):
        old = side(BASE) + [run("paper_sweep", s, {"sim.device_ops": 5.0}, trace=True)
                            for s in range(1, 6)]
        rows, problems = compare.compare(old, old, SPEC)
        self.assertEqual(problems, [])
        self.assertEqual(sorted(r["metric"] for r in rows), ["joins_per_s", "sim.device_ops"])

    def test_parse_run_reads_stdout_capture(self):
        provenance, result = run("svc_closed", 3, {"joins_per_s": 5.0})
        text = "joins_per_s 5 joins/s\n%s\n%s\n" % (json.dumps({"provenance": provenance}),
                                                   json.dumps(result))
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "run.txt"), "w") as f:
                f.write(text)
            runs = compare.load_runs(d)
        self.assertEqual(runs, [(provenance, result)])


if __name__ == "__main__":
    unittest.main()
