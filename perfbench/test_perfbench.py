"""Tests of the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import algebra  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import strongpoly  # noqa: E402
import tracer  # noqa: E402
from stats import percentile, quartiles, samples_beyond, self_times  # noqa: E402


class TestOrderStatistics(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(xs, 50), 3.0)
        self.assertAlmostEqual(percentile(xs, 90), 4.6)
        self.assertEqual(percentile(xs, 0), 1.0)
        self.assertEqual(percentile(xs, 100), 5.0)
        self.assertEqual(percentile([7.0], 90), 7.0)

    def test_percentile_matches_statistics_inclusive(self):
        xs = [0.3, 1.7, 0.2, 9.1, 4.4, 2.5, 0.9, 3.3, 8.0, 5.5, 6.1]
        deciles = statistics.quantiles(xs, n=10, method="inclusive")
        self.assertAlmostEqual(percentile(xs, 90), deciles[8])
        self.assertAlmostEqual(percentile(xs, 50), statistics.median(xs))

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)

    def test_samples_beyond(self):
        self.assertEqual(samples_beyond(100, 90), 10)
        self.assertEqual(samples_beyond(110, 90), 11)
        self.assertEqual(samples_beyond(11, 50), 5)

    def test_quartiles_are_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
        self.assertEqual(quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(quartiles([2.0]), (2.0, 2.0, 2.0))



class TestSpeed(unittest.TestCase):
    def test_scale_is_nominal_over_the_median_sample(self):
        sp = speed.Speed()
        with self.assertRaises(ValueError):
            sp.scale()
        sp.samples = [0.004, 0.001, 0.005]
        self.assertAlmostEqual(sp.scale(), speed.NOMINAL_S / 0.004)

    def test_samples_are_spread_over_time(self):
        sp = speed.Speed()
        sp.sample(2)
        sp.maybe_sample()  # too soon after the last sample
        self.assertEqual(len(sp.samples), 2)
        sp.last -= speed.SAMPLE_EVERY_S
        sp.maybe_sample()
        self.assertEqual(len(sp.samples), 3)
        self.assertTrue(all(t > 0 for t in sp.samples))


class TestSelfTime(unittest.TestCase):
    def test_children_and_folded_kernels_are_subtracted(self):
        spans = [
            ("root", 0.0, 10.0, None, 2.0),   # 2 s of kernel calls directly inside
            ("child", 1.0, 4.0, 0, 0.5),
            ("grandchild", 2.0, 3.0, 1, 0.0),
            ("child", 5.0, 6.0, 0, 0.0),
        ]
        self.assertEqual(self_times(spans), [4.0, 1.5, 1.0, 1.0])

    def test_self_times_add_up_to_the_root(self):
        spans = [("a", 0.0, 8.0, None, 1.0), ("b", 1.0, 5.0, 0, 2.0), ("c", 5.0, 7.0, 0, 0.0)]
        folded = sum(s[4] for s in spans)
        self.assertAlmostEqual(sum(self_times(spans)) + folded, 8.0)

    def test_recorder_nests_spans_and_folds_kernels(self):
        rec = tracer.Recorder()
        kernel = rec.wrap("k", lambda n: sum(range(n)), kernel=True)
        inner = rec.wrap("inner", lambda: kernel(1000) + kernel(10), kernel=False)
        outer = rec.wrap("outer", lambda: inner() + kernel(5), kernel=False)
        outer()
        names = [s[0] for s in rec.spans]
        self.assertEqual(names, ["outer", "inner"])
        self.assertEqual(rec.spans[1][3], 0)  # inner's parent is outer
        totals = rec.raw()["totals"]
        self.assertEqual(totals["k"][0], 3)
        self.assertEqual(totals["outer"][0], 1)
        outer_span = rec.spans[0]
        covered = sum(v[1] for v in totals.values())
        self.assertAlmostEqual(covered, outer_span[2] - outer_span[1], places=6)
        self.assertTrue(all(v[1] >= 0 for v in totals.values()))

    def test_kernel_recursion_counts_once(self):
        rec = tracer.Recorder()

        def fact(n):
            return 1 if n <= 1 else n * wrapped(n - 1)

        wrapped = rec.wrap("fact", fact, kernel=True)
        self.assertEqual(wrapped(5), 120)
        self.assertEqual(rec.raw()["totals"]["fact"][0], 1)


class TestTracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from strongpoly import alexander, factor, ring

        original = ring.exact_divide
        init = vars(ring.LaurentPoly)["__init__"]
        uninstall = tracer.install(tracer.Recorder(), strongpoly)
        try:
            self.assertIsNot(ring.exact_divide, original)
            self.assertIs(alexander.exact_divide, ring.exact_divide)
            self.assertIs(factor.exact_divide, ring.exact_divide)
            self.assertIs(strongpoly.exact_divide, ring.exact_divide)
            self.assertIsNot(vars(ring.LaurentPoly)["__init__"], init)
        finally:
            uninstall()
        self.assertIs(ring.exact_divide, original)
        self.assertIs(alexander.exact_divide, original)
        self.assertIs(vars(ring.LaurentPoly)["__init__"], init)

    def test_counters_repeat_exactly_and_answers_match(self):
        for name, cls in algebra.WORKLOADS.items():
            with self.subTest(workload=name):
                wl = cls(3)
                insts = [wl.instance(i) for i in range(len(wl.KINDS))]
                plain = [wl.judge(inst, wl.run(inst))[1] for inst in insts]
                runs = []
                for _ in range(2):
                    rec = tracer.Recorder()
                    answers = []
                    for inst in insts:
                        uninstall = tracer.install(rec, strongpoly)
                        try:
                            result = wl.run(inst)
                        finally:
                            uninstall()
                        answers.append(wl.judge(inst, result)[1])
                        for counter, value in wl.work(inst, result).items():
                            rec.count(counter, value)
                    self.assertEqual(answers, plain)
                    raw = rec.raw()
                    runs.append(({k: v[0] for k, v in raw["totals"].items()}, raw["counters"]))
                self.assertEqual(runs[0], runs[1])
                self.assertTrue(runs[0][0])

    def test_checks_and_tracing_stay_outside_the_program_run(self):
        class Fake:
            name = "fake"
            KINDS = ("k",)
            running = False

            def instance(self, index):
                return {"kind": "k", "answer": ["a", None, "c", "d"][index]}

            def run(self, inst):
                return inst["answer"]

            def judge(self, inst, result):
                problem = "judged inside the run" if self.running else None
                return result is not None, result or "", problem

        fake = Fake()

        @contextlib.contextmanager
        def during(index):
            fake.running = True
            try:
                yield
            finally:
                fake.running = False

        refs = ["D:" + run.digest("a"), "D:" + run.digest("b"), "U:" + run.digest("x")]
        records = run.run_loop(fake, refs, run.count_stop(4), during=during)
        # Decided and equal; decided in the reference but undecided now;
        # undecided in the reference and decided now; past the references.
        self.assertEqual([r["state"] for r in records],
                         ["decided", "failed", "decided", "decided"])
        self.assertEqual([r["referenced"] for r in records], [True, True, True, False])

    def test_benchmark_json_lists_every_per_layer_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        emitted = set(tracer.layer_metrics({"totals": {}, "counters": {}}))
        emitted |= {"cli.interpreter_s", "cli.import_s", "cli.handler_ms", "trace.overhead_ratio"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, emitted)


if __name__ == "__main__":
    unittest.main()
