#!/usr/bin/env python3
"""Diff a simulation trace CSV against a checked-in golden trace.

Golden traces are full TraceSet CSV exports (header ``time_s,<channel>...``,
uniform time grid) for the canonical fault scenarios, written by::

    bench_fault_scenarios --scenario=<name> --trace=<path>

The scenarios are deterministic, so every sample must equal its golden
value exactly. On divergence the first offending (row, channel) pair is
printed with both values, so a regression bisects to a timestamp instead
of "the file differs". Structural mismatches (channel set, row count, time grid) are
reported before any value diff.

Usage:
    check_trace.py --bench ./bench_fault_scenarios --scenario tire_stop_and_go \
        --golden tests/golden/tire_stop_and_go.csv [--update]
    check_trace.py --current /tmp/trace.csv --golden tests/golden/...csv

--update rewrites the golden from the current run instead of checking.
Exit code: 0 on match, 1 on divergence, 2 on usage/structural error.
"""

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile


def read_trace(path):
    """Parse a TraceSet CSV into (header, rows of floats)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        if not header or header[0] != "time_s":
            raise ValueError(f"{path}: not a trace CSV (first column must be time_s)")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, "
                                 f"got {len(row)}")
            rows.append([float(v) for v in row])
    return header, rows


def run_bench(binary, scenario, out_path):
    proc = subprocess.run(
        [binary, f"--scenario={scenario}", f"--trace={out_path}"],
        stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"note: {os.path.basename(binary)} exited {proc.returncode}")
    if not os.path.exists(out_path):
        raise ValueError(f"bench did not write {out_path}")


def diff(golden, current):
    """Return (failures, first_message). Compares structure then samples."""
    g_header, g_rows = golden
    c_header, c_rows = current
    if g_header != c_header:
        return 1, (f"channel set differs:\n  golden:  {','.join(g_header)}\n"
                   f"  current: {','.join(c_header)}")
    if len(g_rows) != len(c_rows):
        return 1, f"row count differs: golden {len(g_rows)}, current {len(c_rows)}"

    failures = 0
    first = None
    for i, (g_row, c_row) in enumerate(zip(g_rows, c_rows)):
        for j, (g, c) in enumerate(zip(g_row, c_row)):
            if c != g:
                failures += 1
                if first is None:
                    first = (f"first divergence at row {i + 2} "
                             f"(t = {g_row[0]:.6g} s), channel "
                             f"'{g_header[j]}': golden {g:.17g}, current {c:.17g}")
    return failures, first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--bench", help="bench_fault_scenarios binary (runs with --trace)")
    src.add_argument("--current", help="already-written trace CSV")
    ap.add_argument("--scenario", help="scenario name (required with --bench)")
    ap.add_argument("--golden", required=True, help="golden trace CSV path")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden from this run")
    args = ap.parse_args()

    if args.bench and not args.scenario:
        print("error: --bench requires --scenario")
        return 2
    # Fail fast on a missing golden — before spending a bench run — and say
    # how to record one, instead of the generic open() error.
    if not args.update and not os.path.exists(args.golden):
        print(f"error: golden trace {args.golden} does not exist; "
              f"re-run with --update to record it from the current behavior")
        return 2

    tmp = None
    try:
        if args.bench:
            fd, tmp = tempfile.mkstemp(suffix=".csv", prefix="trace_")
            os.close(fd)
            current_path = tmp
            run_bench(args.bench, args.scenario, current_path)
        else:
            current_path = args.current

        if args.update:
            os.makedirs(os.path.dirname(args.golden) or ".", exist_ok=True)
            shutil.copyfile(current_path, args.golden)
            header, rows = read_trace(args.golden)
            print(f"updated {args.golden} ({len(header) - 1} channels x "
                  f"{len(rows)} rows)")
            return 0

        golden = read_trace(args.golden)
        current = read_trace(current_path)
    except (ValueError, OSError) as e:
        print(f"error: {e}")
        return 2
    finally:
        if tmp is not None:
            os.unlink(tmp)

    failures, first = diff(golden, current)
    header, rows = golden
    total = len(rows) * len(header)
    if failures:
        print(first)
        print(f"\n{failures}/{total} sample(s) differ from {args.golden}")
        return 1
    print(f"all {total} samples match {args.golden} exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
