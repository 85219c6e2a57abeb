#!/usr/bin/env python3
"""Compare a bench's --json report exactly with its BENCH_BASELINE.json pins.

A bench writes the bench_util.hpp BenchIo report: its ``metrics`` plus the
numeric ``checks`` rows (keyed ``check:<claim>``). The baseline file pins
every such value per entry::

    {
      "avg_power": {
        "values": {"avg_power_w": 6.611571900133513e-06, ...}
      },
      ...
    }

The benches are deterministic, so a pinned value either reproduces bit for
bit or the model changed: values are compared with ``==``. A pinned key the
run lacks (MISSING) fails, and so does a reported key without a pin (NEW),
which keeps machine-dependent rates out of the file; perfbench/ measures
throughput.

Usage:
    check_bench.py --bench build/bench/bench_avg_power \
        --baseline BENCH_BASELINE.json --name avg_power [--update]
    check_bench.py --validate-series out/run.series.jsonl

--update re-pins the named entry from this run and leaves every other
entry alone; without it the baseline file is never written.
--validate-series is a standalone mode: it checks a telemetry-series JSONL
file (one object per sample row) for schema sanity — numeric strictly
increasing ``t_s``, one consistent key set across rows, every value numeric
or null — and ignores the baseline arguments.
Exit code: 0 when every pin reproduces, 1 on a differing, missing or new
value or a non-zero bench exit (a bench exits with its count of failed
checks; nothing is compared or pinned from such a run), 2 on usage error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def extract_values(doc):
    """Flatten a BenchIo report into {key: number}."""
    values = {key: float(val) for key, val in doc.get("metrics", {}).items()}
    for row in doc.get("checks", []):
        if "measured" in row:
            values["check:" + row["claim"]] = float(row["measured"])
    return values


def run_bench(binary):
    """Run the bench with --json=<tmp> and parse the report it writes.

    Returns None when the bench exits non-zero: a bench's exit code is its
    count of failed invariant and paper checks, so a failing run is a
    failed check whatever its numbers say.
    """
    fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_")
    os.close(fd)
    try:
        proc = subprocess.run([binary, f"--json={path}"], stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"error: {os.path.basename(binary)} exited {proc.returncode} "
                  f"(failed checks)")
            return None
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def compare(pins, current):
    """Print every pin that does not reproduce; returns the failure count."""
    failures = 0
    for key in sorted(set(pins) | set(current)):
        if key not in current:
            print(f"MISSING   {key}: pinned {pins[key]!r}, not reported")
        elif key not in pins:
            print(f"NEW       {key}: {current[key]!r} has no pin")
        elif current[key] != pins[key]:
            print(f"DIFFERS   {key}: pinned {pins[key]!r}, got {current[key]!r}")
        else:
            continue
        failures += 1
    return failures


def validate_series(path):
    """Schema-check a TimeSeriesRecorder JSONL export; returns error count."""
    errors = 0
    keys = None
    prev_t = None
    rows = 0
    try:
        f = open(path)
    except OSError as e:
        print(f"error: cannot open {path}: {e}")
        return 1
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{lineno}: not valid JSON: {e}")
                errors += 1
                continue
            if not isinstance(row, dict):
                print(f"{path}:{lineno}: row is not an object")
                errors += 1
                continue
            rows += 1
            if not isinstance(row.get("t_s"), (int, float)):
                print(f"{path}:{lineno}: missing numeric 't_s'")
                errors += 1
            else:
                if prev_t is not None and row["t_s"] <= prev_t:
                    print(f"{path}:{lineno}: t_s {row['t_s']} not after {prev_t}")
                    errors += 1
                prev_t = row["t_s"]
            if keys is None:
                keys = set(row)
            elif set(row) != keys:
                print(f"{path}:{lineno}: key set changed "
                      f"(+{sorted(set(row) - keys)} -{sorted(keys - set(row))})")
                errors += 1
            for key, val in row.items():
                if val is not None and not isinstance(val, (int, float)):
                    print(f"{path}:{lineno}: '{key}' is neither numeric nor null")
                    errors += 1
    if rows == 0:
        print(f"{path}: no sample rows")
        errors += 1
    if errors == 0:
        print(f"{path}: {rows} row(s), {len(keys) - 1} series, schema ok")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", help="bench binary to run with --json")
    ap.add_argument("--baseline", help="BENCH_BASELINE.json path")
    ap.add_argument("--name", help="baseline entry name")
    ap.add_argument("--update", action="store_true",
                    help="re-pin the named entry from this run")
    ap.add_argument("--validate-series", metavar="JSONL",
                    help="standalone mode: schema-check a series JSONL export")
    args = ap.parse_args()

    if args.validate_series:
        return 1 if validate_series(args.validate_series) else 0
    if not (args.bench and args.baseline and args.name):
        ap.error("--bench, --baseline and --name are required "
                 "unless --validate-series is used")

    doc = run_bench(args.bench)
    if doc is None:
        return 1
    current = extract_values(doc)
    if not current:
        print("error: the bench reported no values")
        return 2

    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)

    if args.update:
        baseline[args.name] = {"values": current}
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"pinned {len(current)} value(s) as '{args.name}' in {args.baseline}")
        return 0

    if args.name not in baseline:
        print(f"error: no entry '{args.name}' in {args.baseline} "
              f"(run with --update to pin one)")
        return 1
    pins = baseline[args.name]["values"]
    failures = compare(pins, current)
    if failures:
        print(f"\n{failures} value(s) do not reproduce the pins of '{args.name}'")
        return 1
    print(f"all {len(pins)} pinned value(s) of '{args.name}' reproduce exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
