"""Self-tests of the benchmark driver.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout. The end-to-end cases build perfbench_run on
first use and run the pause_sweep workload for one second (about 10-20 s of
host time each).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (the driver under test)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_bench(*extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", "pause_sweep", "--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fake_pass(digests):
    return {"reps": [{"label": label, "digest": d} for label, d in digests.items()]}


class CheckTest(unittest.TestCase):
    """The digest oracle behind pass_ratio, on synthetic records."""

    def test_matching_reference_passes(self):
        passes = {(0, False): fake_pass({"a": "1", "b": "2"})}
        self.assertEqual(run.check(passes, {"a": "1", "b": "2"}), (2, 0, []))

    def test_perturbed_reference_fails(self):
        passes = {(0, False): fake_pass({"a": "1", "b": "2"})}
        attempted, failed, problems = run.check(passes, {"a": "1", "b": "3"})
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("b", problems[0])

    def test_without_reference_traced_must_match_untraced(self):
        passes = {(0, False): fake_pass({"a": "1"}), (0, True): fake_pass({"a": "9"})}
        attempted, failed, _ = run.check(passes, None)
        self.assertEqual((attempted, failed), (2, 1))


class DriverTest(unittest.TestCase):
    """End to end through run.py and the built runner."""

    def test_unknown_workload_is_a_located_usage_error(self):
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                               "--workload", "no_such_workload", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("argument --workload", proc.stderr)
        self.assertIn("no_such_workload", proc.stderr)

    def test_printed_metrics_are_exactly_the_declared_ones(self):
        spec = bench_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = run_bench("--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                out = result_of(proc)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                declared = {m["name"]: m["unit"] for m in spec[section]}
                printed = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(printed, declared)
                for name in printed:
                    self.assertRegex(name, NAME)

    def test_perturbed_reference_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "reference.json")
            proc = run_bench("--trace", "0", "--reference", ref, "--record-reference")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            with open(ref, encoding="utf-8") as f:
                refs = json.load(f)
            digests = refs["pause_sweep"]["7"]
            label = sorted(digests)[0]
            digests[label] = "%016x" % (int(digests[label], 16) ^ 1)
            with open(ref, "w", encoding="utf-8") as f:
                json.dump(refs, f)

            proc = run_bench("--trace", "0", "--reference", ref)
            self.assertEqual(proc.returncode, 1)
            out = result_of(proc)
            self.assertFalse(out["correct"])
            self.assertGreater(out["failed"], 0)
            self.assertLess(out["metrics"]["pass_ratio"]["value"], 1.0)
            self.assertIn(label, proc.stderr)


if __name__ == "__main__":
    unittest.main()
