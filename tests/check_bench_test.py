#!/usr/bin/env python3
"""Unit tests for tools/check_bench.py (run by ctest as check_bench_unit).

Drives the checker's --bench path with a fake bench: a small script that
writes a BenchIo-shaped report to --json=<path> and exits with a chosen
code. A bench's exit code counts its failed checks, so a non-zero exit
must fail the check even when every value sits on its baseline. A plain
check (no --update/--record-missing) never writes the baseline file.
"""

import json
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
    f.write('{{"metrics": {metrics}}}')
sys.exit({code})
"""


def run_tool(*argv):
    proc = subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "baseline.json")
        with open(self.baseline, "w") as f:
            json.dump({"fake": {"tolerance": 0.5, "values": {"rate": 100.0}}}, f)

    def tearDown(self):
        self.dir.cleanup()

    def fake_bench(self, code, metrics=None):
        path = os.path.join(self.dir.name, f"bench_exit{code}")
        metrics = json.dumps(metrics or {"rate": 100.0})
        with open(path, "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable, code=code,
                                      metrics=metrics))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def test_passing_bench_on_baseline_exits_zero(self):
        rc, out = run_tool("--bench", self.fake_bench(0),
                           "--baseline", self.baseline, "--name", "fake")
        self.assertEqual(rc, 0, out)
        self.assertIn("within tolerance", out)

    def test_nonzero_bench_exit_fails_the_check(self):
        rc, out = run_tool("--bench", self.fake_bench(3),
                           "--baseline", self.baseline, "--name", "fake")
        self.assertEqual(rc, 1, out)
        self.assertIn("exited 3", out)

    def test_failing_bench_is_not_recorded(self):
        with open(self.baseline, "w") as f:
            f.write("{}")
        rc, out = run_tool("--bench", self.fake_bench(3),
                           "--baseline", self.baseline, "--name", "fake",
                           "--record-missing")
        self.assertEqual(rc, 1, out)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f), {})

    def test_plain_check_never_writes_the_baseline(self):
        with open(self.baseline, "rb") as f:
            before = f.read()
        rc, out = run_tool("--bench", self.fake_bench(0, {"rate": 100.0, "extra": 7.0}),
                           "--baseline", self.baseline, "--name", "fake")
        self.assertEqual(rc, 0, out)
        self.assertIn("NEW       extra", out)
        with open(self.baseline, "rb") as f:
            self.assertEqual(f.read(), before)


if __name__ == "__main__":
    unittest.main()
