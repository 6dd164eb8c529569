"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test builds and runs the benchmark once (about ten seconds);
run it from the root of a checkout.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def scratch_dir():
    """A temporary directory inside the checkout's .perfbench/."""
    base = os.path.join(ROOT, run.SCRATCH)
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


class Quantiles(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.quartiles(range(1, 10)), (2.5, 5.0, 7.5))
        self.assertEqual(stats.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertEqual(stats.quartiles([7]), (7, 7, 7))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread(range(1, 10)), 1.0)
        self.assertEqual(stats.spread([5, 5, 5, 5]), 0.0)


class WinRule(unittest.TestCase):
    def test_win_fraction_ignores_ties(self):
        base = [10, 10, 10, 10]
        self.assertEqual(stats.win_fraction(base, [9, 10, 11, 9], "lower"), 0.5)
        self.assertEqual(stats.win_fraction(base, [9, 10, 11, 9], "higher"), 0.25)

    def test_improved_needs_nine_tenths_and_a_gap_over_the_spread(self):
        base = [10.0] * 10
        self.assertEqual(stats.verdict(base, [8.0] * 9 + [11.0], "lower", 0.1), "improved")
        # 8 of 10 pairs won: not a gain, but within the bound.
        self.assertEqual(stats.verdict(base, [8.0] * 8 + [11.0] * 2, "lower", 0.1),
                         "no worse")
        # Every pair won, but by less than the baseline's own spread.
        noisy = [9.0, 9.5, 10.0, 10.5, 11.0] * 2
        self.assertEqual(stats.verdict(noisy, [x - 0.1 for x in noisy], "lower", 0.25),
                         "no worse")

    def test_worse_and_unresolved(self):
        base = [10.0] * 10
        self.assertEqual(stats.verdict(base, [12.0] * 10, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(base, [12.0] * 10, "higher", 0.1), "improved")
        wide = [5.0, 15.0] * 5
        self.assertEqual(stats.verdict(wide, [12.0] * 10, "lower", 0.1), "unresolved")
        # A wide baseline is still resolved when every new run beats every base run.
        self.assertEqual(stats.verdict(wide, [4.0] * 10, "lower", 0.1), "no worse")


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [(1, "root", 0, 100, 0),
                 (2, "a", 10, 40, 1),
                 (3, "a.child", 15, 25, 2),
                 (4, "b", 50, 70, 1)]
        self.assertEqual(stats.self_times(spans), {1: 50, 2: 20, 3: 10, 4: 20})

    def test_overlapping_children_count_once(self):
        # Two pool workers' jobs overlap in time under one parent.
        spans = [(1, "pool", 0, 100, 0),
                 (2, "job", 10, 60, 1),
                 (3, "job", 30, 90, 1),
                 (4, "job", 40, 50, 1)]
        self.assertEqual(stats.self_times(spans)[1], 20)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(1, "p", 100, 200, 0), (2, "c", 50, 150, 1), (3, "d", 190, 260, 1)]
        self.assertEqual(stats.self_times(spans)[1], 40)

    def test_unattributed_is_the_root_self_time(self):
        ns = 1_000_000_000
        spans = [(1, "bench.run", 0, 10 * ns, 0),
                 (2, "core.fig1", ns, 9 * ns, 1),
                 (3, "core.measure", 2 * ns, 8 * ns, 2),
                 (4, "bsv.elab", 2 * ns, 5 * ns, 3)]
        rec = {"counts": {}, "jobs": 1, "alloc_mb": 1.0, "major_gcs": 1}
        m = run.layer_metrics(rec, spans, rec, spans, {"wall_s": 10.0})
        self.assertAlmostEqual(m["bench.unattributed_s"]["value"], 2.0)
        self.assertAlmostEqual(m["bsv.elab_s"]["value"], 3.0)
        self.assertEqual(m["bsv.designs"]["value"], 1)
        self.assertAlmostEqual(m["core.self_s"]["value"], 5.0)
        self.assertAlmostEqual(m["bench.trace_overhead_ratio"]["value"], 0.0)


class Declared(unittest.TestCase):
    def test_benchmark_json_names_every_metric_run_py_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        spans = [(1, "bench.run", 0, 10, 0)]
        rec = {"counts": {}, "jobs": 1, "alloc_mb": 1.0, "major_gcs": 1}
        m = run.layer_metrics(rec, spans, rec, spans, {"wall_s": 1.0})
        self.assertEqual([p["name"] for p in bench["per_layer"]], list(m))
        self.assertEqual({p["name"]: p["unit"] for p in bench["per_layer"]},
                         {k: v["unit"] for k, v in m.items()})


class Compare(unittest.TestCase):
    def test_pairs_by_seed_and_prints_a_verdict(self):
        def rec(seed, wall):
            return {"workload": "w", "seed": seed, "trace": 0,
                    "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}
        with scratch_dir() as d:
            a, b = os.path.join(d, "a"), os.path.join(d, "b")
            with open(a, "w") as f:
                f.writelines(json.dumps(rec(s, 10.0)) + "\n" for s in range(10))
            with open(b, "w") as f:
                f.writelines(json.dumps(rec(s, 8.0)) + "\n" for s in reversed(range(10)))
            bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}],
                     "per_layer": []}
            out = io.StringIO()
            compare.compare(compare.load(a), compare.load(b), bench, out=out)
            row = out.getvalue().splitlines()[1]
            self.assertIn("100%", row)
            self.assertTrue(row.endswith("improved"), row)


class OutputCheck(unittest.TestCase):
    def expected(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            return json.load(f)

    def test_wrong_digest_is_a_problem(self):
        exp = self.expected()
        rec = {"workload": "fig1_cold", "problems": [], "failed": 0,
               "outputs": dict(exp["fig1_cold"]["outputs"]),
               "counts": dict(exp["fig1_cold"]["counts"])}
        self.assertEqual(run.check(rec, exp, traced=False), [])
        rec["outputs"]["text_md5"] = "0" * 32
        self.assertEqual(len(run.check(rec, exp, traced=False)), 1)

    def test_run_against_a_wrong_digest_reports_failure(self):
        exp = self.expected()
        exp["dse_transfo"]["outputs"]["points_md5"] = "0" * 32
        with scratch_dir() as d:
            wrong = os.path.join(d, "expected.json")
            with open(wrong, "w") as f:
                json.dump(exp, f)
            p = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "dse_transfo", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--expected", wrong],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["pass_ratio"]["value"], 0.0)
        self.assertIn("points_md5", p.stderr)


if __name__ == "__main__":
    unittest.main()
