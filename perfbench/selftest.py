#!/usr/bin/env python3
"""Self-tests of the kcenter benchmark.

    python3 perfbench/selftest.py        (or: python3 perfbench/run.py --self-test)

Checks the tail-percentile rule, the trimmed mean, the self-time arithmetic
on a synthetic span tree, that BENCHMARK.json, perfbench/predictions.json
and the metric code agree, and - through small runs of the real benchmark -
that a deliberately failing check raises fail_ratio and the exit status
while the unbroken workloads pass with every replay-fidelity check.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args):
    """Runs run.py at 1/100 of the input sizes; returns (status, result)."""
    proc = subprocess.run(RUN + ["--scale", "0.01", "--seconds", "0"] +
                          list(args), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class TailPercentile(unittest.TestCase):
    def test_200_samples_give_p95_with_10_beyond(self):
        self.assertEqual(benchlib.tail_percentile(list(range(200, 0, -1))),
                         (95.0, 190, 10, 200))

    def test_1000_samples_give_p99(self):
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))),
                         (99.0, 990, 10, 1000))

    def test_199_samples_fall_back_to_p90(self):
        # p95 leaves only 9 samples beyond it.
        self.assertEqual(benchlib.nearest_rank(list(range(1, 200)), 95.0),
                         (190, 9))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 200))),
                         (90.0, 180, 19, 199))

    def test_under_20_samples_report_the_median(self):
        self.assertEqual(benchlib.tail_percentile([5.0, 1.0, 3.0]),
                         (None, 3.0, 1, 3))


class TrimmedMean(unittest.TestCase):
    def test_drops_a_fifth_at_each_end(self):
        # 10 values: the lowest two and the highest two are dropped.
        self.assertEqual(benchlib.trimmed_mean(
            [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0]), 4.5)

    def test_under_5_values_is_the_mean(self):
        self.assertEqual(benchlib.trimmed_mean([1.0, 2.0, 6.0]), 3.0)


def span(sid, parent, name, t0, t1, **counters):
    return {"id": sid, "parent": parent, "op": -1, "name": name,
            "t0": t0, "t1": t1, "counters": counters}


# root [0,10] with children A [1,5] (child B [2,3]), C [4,8] overlapping A,
# and D [9,12] running past the root's end.
TREE = [
    span(0, -1, "bench.iteration", 0.0, 10.0, group=0),
    span(1, 0, "core.solve", 1.0, 5.0),
    span(2, 1, "core.eval", 2.0, 3.0),
    span(3, 0, "stream.insert", 4.0, 8.0, joins=3.0, new_reps=1.0),
    span(4, 0, "dataset.chunk", 9.0, 12.0, bytes=64.0),
]


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        own = benchlib.self_times(TREE)
        # Root: 10 − |[1,8] ∪ [9,10]| = 2; children are clipped to the root.
        self.assertEqual(own, {0: 2.0, 1: 3.0, 2: 1.0, 3: 4.0, 4: 3.0})

    def test_layer_sums_and_coverage(self):
        m = benchlib.iter_layer_metrics(benchlib.GroupView(TREE))
        self.assertEqual(m["self.core_s"], 4.0)
        self.assertEqual(m["self.stream_s"], 4.0)
        self.assertEqual(m["self.dataset_s"], 3.0)
        self.assertEqual(m["self.bench_s"], 2.0)
        self.assertEqual(m["core.solve_calls"], 1)
        self.assertEqual(m["stream.join_ratio"], 0.75)
        self.assertEqual(m["dataset.bytes_read"], 64.0)
        self.assertAlmostEqual(
            benchlib.root_coverage(TREE, "bench.iteration"), 0.8)

    def test_groups_follow_the_root(self):
        extra = [span(5, -1, "bench.setup", 20.0, 21.0, group=0),
                 span(6, 5, "workload.generate", 20.0, 20.5)]
        grouped = benchlib.groups(TREE + extra)
        self.assertEqual(sorted(grouped), [("iter", 0), ("setup", 0)])
        self.assertEqual(len(grouped[("iter", 0)]), 5)


class Spec(unittest.TestCase):
    def test_every_per_layer_metric_has_a_prediction_and_a_formula(self):
        preds = json.loads((HERE / "predictions.json").read_text())
        predicted = {p["metric"] for p in preds["predictions"]}
        names = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(names, predicted)
        computed = set(benchlib.iter_layer_metrics(benchlib.GroupView([])))
        computed |= set(benchlib.setup_layer_metrics(benchlib.GroupView([])))
        computed |= {"trace.overhead_pct", "trace.coverage_pct"}
        self.assertEqual(names, computed)


class Runs(unittest.TestCase):
    def test_failing_check_raises_fail_ratio_and_exit_status(self):
        status, result = run_bench("--workload", "dynamic-turnstile", "--seed",
                                   "1", "--trace", "0", "--fail-check")
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_every_workload_passes_traced_and_untraced(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, result = run_bench("--workload", workload,
                                               "--seed", "3", "--trace", trace)
                    self.assertEqual(status, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in SPEC[kind]})


if __name__ == "__main__":
    unittest.main(verbosity=2)
