"""Quick self-test of the benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

- a one-twist smoke run emits every metric BENCHMARK.json lists, with
  its unit, in each mode;
- two traced runs with the same seed give identical counts;
- a wrong expected golden hash makes the run fail;
- the pace ticks scale a time by the reference tick over the measured one;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  exits nonzero without printing a result.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

import pace
import run
import workload

ROOT = run.ROOT
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Per-layer metrics that count work rather than time it.
COUNT_UNITS = ("count", "bytes", "bits")


def bench(*argv):
    """Run run.py in a fresh process; (exit code, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")] + list(argv),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT, timeout=300)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def smoke(trace, seed=1):
    # --seconds 1 gives the fewest tasks: the golden task and one twist
    code, out = bench("--workload", "ref-twists", "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace))
    return code, result(out)


class SelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(SPEC) as fh:
            cls.spec = json.load(fh)

    def assert_metrics(self, res, listed):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in listed))
        for m in listed:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_untraced_smoke_emits_end_to_end_metrics(self):
        code, res = smoke(trace=0)
        self.assertEqual(code, 0)
        self.assertEqual(res["attempted"], 2)
        self.assert_metrics(res, self.spec["end_to_end"])
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_smoke_emits_layer_metrics_and_repeats_counts(self):
        runs = [smoke(trace=1) for _ in range(2)]
        for code, res in runs:
            self.assertEqual(code, 0)
            self.assert_metrics(res, self.spec["per_layer"])
        counts = [{name: m["value"] for name, m in res["metrics"].items()
                   if m["unit"] in COUNT_UNITS} for _, res in runs]
        self.assertGreater(len(counts[0]), 10)
        self.assertEqual(counts[0], counts[1])

    def test_wrong_golden_hash_fails_the_run(self):
        def child(args, deadline, trace, no_tasks=False):
            ns = argparse.Namespace(workload=args.workload, seed=args.seed,
                                    seconds=args.seconds, trace=trace,
                                    started=time.time(), no_tasks=no_tasks)
            return workload.run(ns)

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(workload, "GOLDEN_SHA256", "0" * 64), \
                mock.patch.object(run, "run_child", child), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "ref-twists", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
        res = result(out.getvalue())
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertIn("golden artifact changed", err.getvalue())

    def test_fails_without_the_program(self):
        os.makedirs(workload.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=workload.OUT_DIR)
        try:
            shutil.copy(SPEC, bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "ref-twists", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, timeout=180,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_pace_scales_by_the_tick_time(self):
        p = pace.Pace()
        self.assertEqual(p.since(p.mark()).speed, 1.0)
        p.start()
        try:
            mark = p.mark()
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pace.tick_work()
            span = p.since(mark)
        finally:
            p.stop()
        self.assertGreaterEqual(len(p.ticks), pace.MIN_TICKS)
        self.assertAlmostEqual(span.speed, pace.REF_TICK_S / pace.typical(p.ticks))
        self.assertLess(span.wall, 0.3)
        self.assertAlmostEqual(span.scaled, span.wall * span.speed)
        part = pace.Span(0.1, 5.0)
        self.assertAlmostEqual(span.minus(part).wall, span.wall - 0.1)
        self.assertEqual(span.minus(part).speed, span.speed)

    def test_typical_tick_caps_stalls(self):
        self.assertAlmostEqual(pace.typical([1.0, 1.0, 1.0, 1.0, 1.0]), 1.0)
        # a 100 ms stall counts as 3 ticks' worth, not 100
        self.assertAlmostEqual(pace.typical([1.0, 1.0, 1.0, 1.0, 100.0]), 7.0 / 5)

    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        xs = [float(k) for k in range(1, 31)]
        self.assertEqual(run.tail(xs), (200.0 / 3, 20.0))
        self.assertEqual(run.tail(xs[:20]), (50.0, 10.0))


if __name__ == "__main__":
    unittest.main()
