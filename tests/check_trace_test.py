#!/usr/bin/env python3
"""Unit tests for tools/check_trace.py (run by ctest as check_trace_unit).

Exercises the differ's exit-code contract through the --current path, with
small synthesized trace CSVs — no bench binary involved:

  0 = match, 1 = sample divergence, 2 = usage/structural error (including
  the explicit missing-golden diagnosis, which must name --update).
"""

import math
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "tools", "check_trace.py")

TRACE = "time_s,v_cap,i_load\n0,1.0,0.001\n0.5,0.99,0.001\n1,0.98,0.002\n"


def run_tool(*argv):
    proc = subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class CheckTraceTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.current = os.path.join(self.dir.name, "current.csv")
        self.golden = os.path.join(self.dir.name, "golden.csv")
        with open(self.current, "w") as f:
            f.write(TRACE)

    def tearDown(self):
        self.dir.cleanup()

    def test_missing_golden_fails_with_actionable_error(self):
        rc, out = run_tool("--current", self.current, "--golden", self.golden)
        self.assertEqual(rc, 2, out)
        self.assertIn(self.golden, out)
        self.assertIn("--update", out)

    def test_update_records_golden_then_match_exits_zero(self):
        rc, out = run_tool("--current", self.current, "--golden", self.golden,
                           "--update")
        self.assertEqual(rc, 0, out)
        self.assertTrue(os.path.exists(self.golden))
        rc, out = run_tool("--current", self.current, "--golden", self.golden)
        self.assertEqual(rc, 0, out)
        self.assertIn("samples match", out)

    def test_sample_divergence_exits_one_and_locates_it(self):
        with open(self.golden, "w") as f:
            f.write(TRACE)
        with open(self.current, "w") as f:
            f.write(TRACE.replace("0.99", "0.90"))
        rc, out = run_tool("--current", self.current, "--golden", self.golden)
        self.assertEqual(rc, 1, out)
        self.assertIn("v_cap", out)
        self.assertIn("row 3", out)

    def test_one_ulp_divergence_exits_one(self):
        with open(self.golden, "w") as f:
            f.write(TRACE)
        with open(self.current, "w") as f:
            f.write(TRACE.replace("0.99", repr(math.nextafter(0.99, 1.0))))
        rc, out = run_tool("--current", self.current, "--golden", self.golden)
        self.assertEqual(rc, 1, out)
        self.assertIn("v_cap", out)

    def test_structural_mismatch_exits_two(self):
        with open(self.golden, "w") as f:
            f.write("not,a,trace\n1,2,3\n")
        rc, out = run_tool("--current", self.current, "--golden", self.golden)
        self.assertEqual(rc, 2, out)
        self.assertIn("time_s", out)


if __name__ == "__main__":
    unittest.main()
