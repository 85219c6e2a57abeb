#!/usr/bin/env python3
"""Drive a generated soak corpus through the checkpoint/resume drill.

For each scenario of the corpus (``scenario::generate`` inside
``bench_soak_corpus``; the corpus is a pure function of --corpus-seed) the
runner performs the full resume drill as three separate processes — the
way a real power failure would interleave them:

  1. save:    run to --checkpoint-at of the horizon, write <name>.ckpt
              (and the generator manifest recording every drawn parameter)
  2. resume:  a fresh process restores <name>.ckpt and runs to the horizon
  3. full:    an uninterrupted reference run of the same scenario

It then requires the resumed metrics — counter totals, energy, metrics
fingerprint, flight fingerprint, series rows — to match the full run
EXACTLY (these are deterministic integers and bit-exact doubles, not
tolerance bands) and schema-checks the resumed series JSONL via
check_bench.py's validator.

On a resume divergence the runner prints the exact commands to replay the
failure from the saved checkpoint and to bisect it by re-checkpointing at
the midpoint of the diverging window — the workflow docs/SCENARIOS.md
describes.

    soak_runner.py --bench build/bench/bench_soak_corpus --out /tmp/soak \
        --scenarios 3 --sim-time 60 --checkpoint-at 0.5

Exit code: 0 when every scenario resumes bit-identically; 1 otherwise; 2 on
usage error.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench import validate_series  # noqa: E402

# Keys that must match exactly between the resumed and the full run.
# fingerprint/flight_fingerprint ride as exact hi/lo u32 pairs.
EXACT_KEYS = [
    "delivered", "frames_on_air", "collided", "nodes_dead", "energy_out_j",
    "series_rows", "fingerprint_hi", "fingerprint_lo",
    "flight_fingerprint_hi", "flight_fingerprint_lo",
]


def run(cmd):
    return subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode


def load_metrics(path):
    with open(path) as f:
        return json.load(f).get("metrics", {})


def drill(args, index):
    """Run save/resume/full for one scenario; returns its failure count."""
    name = f"gen_{args.corpus_seed}_{index}"
    prefix = os.path.join(args.out, name)
    ckpt = prefix + ".ckpt"
    common = [
        args.bench,
        f"--corpus-seed={args.corpus_seed}",
        f"--index={index}",
        f"--sim-time={args.sim_time}",
    ]

    rc = run(common + [f"--checkpoint-at={args.checkpoint_at}",
                       f"--save={ckpt}", f"--json={prefix}.save.json",
                       f"--manifest-dir={args.out}"])
    if rc != 0 or not os.path.exists(ckpt):
        print(f"error: {name}: save leg exited {rc}, no checkpoint written")
        return 1

    series_prefix = os.path.join(args.out, "soak")
    rc = run(common + [f"--resume-from={ckpt}", f"--json={prefix}.resumed.json",
                       f"--series-out={series_prefix}"])
    if rc != 0:
        print(f"error: {name}: resume leg exited {rc}")
        print(f"  replay: {args.bench} --corpus-seed={args.corpus_seed} "
              f"--index={index} --sim-time={args.sim_time} --resume-from={ckpt}")
        return 1

    rc = run(common + [f"--scenarios={index + 1}", f"--json={prefix}.full.json"])
    if rc != 0:
        print(f"error: {name}: uninterrupted reference run exited {rc}")
        return 1

    failures = 0
    resumed = load_metrics(prefix + ".resumed.json")
    full = load_metrics(prefix + ".full.json")
    for key in EXACT_KEYS:
        a = resumed.get(key)
        b = full.get(f"{name}.{key}")
        if a != b:
            print(f"DIVERGES  {name}.{key}: resumed {a!r} vs uninterrupted {b!r}")
            failures += 1
    if failures:
        mid = args.checkpoint_at / 2.0
        print(f"{name}: resumed run diverged from the uninterrupted run.")
        print(f"  replay from the checkpoint:\n"
              f"    {args.bench} --corpus-seed={args.corpus_seed} --index={index} "
              f"--sim-time={args.sim_time} --resume-from={ckpt}")
        print(f"  bisect the divergence window (re-checkpoint at the midpoint):\n"
              f"    {args.bench} --corpus-seed={args.corpus_seed} --index={index} "
              f"--sim-time={args.sim_time} --checkpoint-at={mid} --save={ckpt}.bisect")
    else:
        print(f"{name}: resume == uninterrupted "
              f"(delivered={int(full.get(f'{name}.delivered', -1))}, "
              f"ckpt={os.path.getsize(ckpt)} B)")

    if validate_series(f"{series_prefix}.{name}.series.jsonl"):
        failures += 1
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, help="bench_soak_corpus binary")
    ap.add_argument("--out", required=True, help="directory for run artifacts")
    ap.add_argument("--scenarios", type=int, default=3)
    ap.add_argument("--corpus-seed", type=int, default=2008)
    ap.add_argument("--sim-time", type=float, default=60.0)
    ap.add_argument("--checkpoint-at", type=float, default=0.5,
                    help="cut point as a fraction of the horizon")
    args = ap.parse_args()

    if not (0.0 < args.checkpoint_at < 1.0):
        ap.error("--checkpoint-at must be a fraction in (0, 1)")
    os.makedirs(args.out, exist_ok=True)

    failures = sum(drill(args, index) for index in range(args.scenarios))

    if failures:
        print(f"\n{failures} failure(s) across {args.scenarios} scenario(s)")
        return 1
    print(f"\nall {args.scenarios} scenario(s): resume bit-identical, "
          f"series schema ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
