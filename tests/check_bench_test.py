#!/usr/bin/env python3
"""Unit tests for tools/check_bench.py (run by ctest as check_bench_unit).

Drives the checker with a fake bench: a small script that writes a
BenchIo-shaped report to --json=<path> and exits with a chosen code. The
contract under test: every value is compared with its pin exactly, a key
on one side only fails, a bench's non-zero exit fails and pins nothing,
and only --update writes the baseline — and then only the named entry.
"""

import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "tools", "check_bench.py")

FAKE_BENCH = """#!{python}
import sys
path = next(a for a in sys.argv[1:] if a.startswith("--json="))[len("--json="):]
with open(path, "w") as f:
    f.write({report!r})
sys.exit({code})
"""

PINS = {"count": 17.0, "power_w": 6.611571900133513e-06}
OTHER = {"values": {"untouched": 0.1}}


def run_tool(*argv):
    proc = subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "baseline.json")
        with open(self.baseline, "w") as f:
            json.dump({"fake": {"values": PINS}, "other": OTHER}, f)
        with open(self.baseline, "rb") as f:
            self.before = f.read()

    def tearDown(self):
        self.dir.cleanup()

    def fake_bench(self, metrics, code=0, checks=()):
        path = os.path.join(self.dir.name, "bench_fake")
        report = json.dumps({"metrics": metrics, "checks": list(checks)})
        with open(path, "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable, code=code,
                                      report=report))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def check(self, bench, *extra):
        return run_tool("--bench", bench, "--baseline", self.baseline,
                        "--name", "fake", *extra)

    def assert_baseline_unchanged(self):
        with open(self.baseline, "rb") as f:
            self.assertEqual(f.read(), self.before)

    def test_exact_reproduction_passes(self):
        rc, out = self.check(self.fake_bench(dict(PINS)))
        self.assertEqual(rc, 0, out)
        self.assertIn("reproduce exactly", out)

    def test_one_ulp_fails(self):
        for key in PINS:
            for direction in (math.inf, -math.inf):
                metrics = dict(PINS)
                metrics[key] = math.nextafter(PINS[key], direction)
                rc, out = self.check(self.fake_bench(metrics))
                self.assertEqual(rc, 1, out)
                self.assertIn(f"DIFFERS   {key}", out)

    def test_numeric_check_rows_are_pinned(self):
        row = {"claim": "paper claim", "measured": 0.5, "paper": 0.5}
        rc, out = self.check(self.fake_bench(dict(PINS), checks=[row]))
        self.assertEqual(rc, 1, out)
        self.assertIn("NEW       check:paper claim", out)

    def test_new_key_fails(self):
        rc, out = self.check(self.fake_bench({**PINS, "rate_per_s": 1e6}))
        self.assertEqual(rc, 1, out)
        self.assertIn("NEW       rate_per_s", out)
        self.assert_baseline_unchanged()

    def test_missing_key_fails(self):
        rc, out = self.check(self.fake_bench({"count": PINS["count"]}))
        self.assertEqual(rc, 1, out)
        self.assertIn("MISSING   power_w", out)

    def test_nonzero_bench_exit_fails_and_writes_nothing(self):
        for extra in ((), ("--update",)):
            rc, out = self.check(self.fake_bench({"count": 3.0}, code=3), *extra)
            self.assertEqual(rc, 1, out)
            self.assertIn("exited 3", out)
            self.assert_baseline_unchanged()

    def test_unknown_entry_fails_without_writing(self):
        rc, out = run_tool("--bench", self.fake_bench(dict(PINS)),
                           "--baseline", self.baseline, "--name", "absent")
        self.assertEqual(rc, 1, out)
        self.assert_baseline_unchanged()

    def test_plain_check_never_writes_the_baseline(self):
        for metrics in (dict(PINS), {**PINS, "count": 18.0}, {**PINS, "extra": 7.0}):
            self.check(self.fake_bench(metrics))
            self.assert_baseline_unchanged()

    def test_update_rewrites_only_the_named_entry(self):
        repinned = {"count": 18.0, "extra": 7.0}
        rc, out = self.check(self.fake_bench(repinned), "--update")
        self.assertEqual(rc, 0, out)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f), {"fake": {"values": repinned},
                                            "other": OTHER})
        rc, out = self.check(self.fake_bench(repinned))
        self.assertEqual(rc, 0, out)

    def test_help_lists_only_the_exact_contract(self):
        rc, out = run_tool("--help")
        self.assertEqual(rc, 0, out)
        for gone in ("--current", "--tolerance", "--record-missing"):
            self.assertNotIn(gone, out)


if __name__ == "__main__":
    unittest.main()
