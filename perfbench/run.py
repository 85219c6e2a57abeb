#!/usr/bin/env python3
"""The repository benchmark: build the library and the ``perfbench`` driver
binary from source, run one workload, check its outputs, and print every
metric BENCHMARK.json declares.

    python3 perfbench/run.py --workload highway_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics over repeated untraced passes (one fresh process per pass);
``--trace 1`` runs one traced invocation and prints the per-layer metrics,
writing its spans to .bench_build/traces/. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pbmetrics as pm  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")

# The seed the pinned results in pins.json belong to.
DEFAULT_SEED = 1
# Worker threads of every measured pass. One thread needs one free core of
# a shared host; a pool as large as the core count measures the host's
# scheduler (README.md, "Steadiness").
THREADS = 1
# Thread count of the twins that check regrouping and measure thread
# scaling: the core count, at most 4.
MAX_SCALE_THREADS = 4
# Measured passes per untraced invocation, at least; the first pass of an
# invocation is a warm-up that is checked but not timed. A pass that would
# end after --seconds is not started once this many have run.
MIN_REPS = 3
# A pass during which the hypervisor took more than this share of the
# machine's CPU time (steal, /proc/stat) is checked but timed only when
# fewer than MIN_REPS passes ran without. See README.md, "Steadiness".
STEAL_LIMIT = 0.02
# A single pass may not take longer than this (seconds).
PASS_TIMEOUT = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the driver binary incrementally."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):  # written by a successful configure
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])  # RelWithDebInfo, as the repository builds
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def call(*args):
    res = subprocess.run(
        [BINARY, *map(str, args)], stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT
    )
    if res.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(map(str, args))} exited {res.returncode}")
    return json.loads(res.stdout)


def host_steal_s():
    """CPU time the hypervisor has taken from this machine (all CPUs), in
    seconds; 0 where the kernel does not report steal."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def timed_pass(workload, seed, threads):
    """One untraced pass, with the share of machine CPU time stolen during
    it and the time the process took."""
    s0, t0 = host_steal_s(), time.monotonic()
    rep = call("timed", workload, "--seed", seed, "--threads", threads)
    rep["process_s"] = time.monotonic() - t0
    rep["steal_frac"] = (host_steal_s() - s0) / (rep["process_s"] * (os.cpu_count() or 1))
    return rep


def source_digest():
    """sha256 over every file under src/ and perfbench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return None
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_class(info, threads, scale_threads):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"],
        "PICO_OBSERVABILITY": "ON" if info["observability"] else "OFF",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "threads": threads,
        "scale_threads": scale_threads,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_pins(workload):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {})


def repin(workload, threads):
    """Record a pass at DEFAULT_SEED as the pinned results. Only for a
    change that alters the simulated physics on purpose; say why."""
    p = call("timed", workload, "--seed", DEFAULT_SEED, "--threads", threads)["pass"]
    path = os.path.join(HERE, "pins.json")
    with open(path) as f:
        pins = json.load(f)
    pins[workload] = {"exact": p["exact"]}
    if p["trial_power_w"]:
        pins[workload]["trial_power_w"] = p["trial_power_w"]
    with open(path, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"pinned {workload} at seed {DEFAULT_SEED}")


def shape_checks(checks, workload, p):
    """The properties each workload was chosen for; a pass that lost them
    no longer measures what README.md says it does."""
    e, l = p["exact"], p["layer"]
    if workload == "highway_dense":
        checks.add("shape: every domain advances every epoch",
                   l["phase.domains_advanced"] == l["phase.domain_epochs"])
    elif workload == "million_sparse":
        checks.add("shape: under 10% of domain-epochs advance",
                   l["phase.domains_advanced"] < 0.1 * l["phase.domain_epochs"])
    elif workload == "arq_soak_resume":
        checks.add("shape: the jam burns retry chains", e["fleet.arq_retries"] > 0 and e["fleet.arq_gaveup"] > 0)
        checks.add("shape: most nodes retire", e["fleet.nodes_dead"] * 2 > e["fleet.nodes"])
        checks.add("shape: the checkpoint is non-empty", l["ckpt.bytes"] > 0)
    elif workload == "node_sweep_circuit":
        checks.add("shape: every trial draws power", all(w > 0 for w in p["trial_power_w"]))


def verify_pass(checks, label, workload, p, twins):
    """Compare a pass with the check twins of its seed. True when it passed."""
    ok = True
    if workload == "node_sweep_circuit":
        ok &= pm.same_results(checks, f"{label} == sweep at {twins['threads']} threads", p, twins["scaled"])
    else:
        ok &= pm.same_results(checks, f"{label} == regrouped twin", p, twins["regrouped"])
        if workload == "arq_soak_resume":
            ok &= pm.same_results(checks, f"{label} resumed == uninterrupted", p, twins["uninterrupted"])
    return ok


def passes_to_time(clean, stolen):
    """The passes whose timings count: those without host steal when there
    are MIN_REPS of them, else every pass that passed its checks."""
    return clean if len(clean) >= MIN_REPS else clean + stolen


def untraced(workload, seed, seconds, threads, scale_threads, checks):
    """End-to-end metrics: medians over the passes that passed their checks
    and ran without host steal, scaled to full host speed; the same medians
    as measured, the samples, and a note on excluded passes and the host."""
    check = call("check", workload, "--seed", seed, "--threads", threads, "--scale-threads", scale_threads)
    twins = dict(check["variants"], threads=scale_threads)
    warm = timed_pass(workload, seed, threads)
    verify_pass(checks, "warm-up pass", workload, warm["pass"], twins)
    shape_checks(checks, workload, warm["pass"])
    if seed == DEFAULT_SEED:
        pm.check_pins(checks, "warm-up pass", warm["pass"], load_pins(workload))

    clean, stolen = [], []
    bad = 0
    process_s = [warm["process_s"]]
    start = time.monotonic()
    while bad < MIN_REPS:
        if (len(clean) + len(stolen) >= MIN_REPS
                and time.monotonic() - start + pm.median(process_s) > seconds):
            break
        rep = timed_pass(workload, seed, threads)
        process_s.append(rep["process_s"])
        if not verify_pass(checks, f"pass {len(clean) + len(stolen) + bad + 1}", workload, rep["pass"], twins):
            bad += 1
        elif rep["steal_frac"] <= STEAL_LIMIT:
            clean.append(rep)
        else:
            stolen.append(rep)
    good = passes_to_time(clean, stolen)
    if not good:
        raise SystemExit("perfbench: no pass passed its checks; no timing to report")

    samples = {
        "wall_s": [r["pass"]["timing"]["wall_s"] for r in good],
        "setup_s": [r["pass"]["timing"]["setup_s"] for r in good],
        "node_sim_s_per_wall_s": [
            r["pass"]["timing"]["node_sim_s"] / (r["pass"]["timing"]["wall_s"] - r["pass"]["timing"]["setup_s"])
            for r in good
        ],
        "cpu_s": [r["pass"]["timing"]["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    raw = {k: pm.median(v) for k, v in samples.items()}
    speed = pm.host_speed([r["host_ref_s"] for r in good])
    metrics = pm.host_scaled(raw, speed)
    if good is clean:
        note = f"{len(stolen)} passes not timed: host steal above {STEAL_LIMIT:.0%} of the machine"
    else:
        note = f"fewer than {MIN_REPS} passes ran with host steal at or below {STEAL_LIMIT:.0%}; all are timed"
    if bad:
        note += f"; {bad} passes failed their checks and are not timed"
    note += (f"\n  host reference kernel: median {pm.median([r['host_ref_s'] for r in good]) * 1e3:.2f} ms"
             f" (full speed: {pm.HOST_REFERENCE_S * 1e3:.0f} ms), host speed {speed:.3f};"
             f" times are scaled by it, rates divided")
    return metrics, raw, samples, note


def traced(workload, seed, threads, scale_threads, checks, mclass):
    run_id = int.from_bytes(os.urandom(7), "big")
    trace = call("trace", workload, "--seed", seed, "--threads", threads,
                 "--scale-threads", scale_threads, "--run-id", run_id)
    passes = trace["passes"]
    base = passes["untraced"]
    shape_checks(checks, workload, base)
    if seed == DEFAULT_SEED:
        pm.check_pins(checks, "untraced pass", base, load_pins(workload))
    pm.same_results(checks, "traced pass == untraced pass", passes["traced"], base)
    pm.same_results(checks, f"threads={scale_threads} twin == untraced pass", passes["scaled"], base)
    if "uninterrupted" in passes:
        pm.same_results(checks, "resumed == uninterrupted", base, passes["uninterrupted"])
        checks.equal("hooks detached: fleet fingerprint unchanged",
                     passes["hooks_detached"]["exact"]["fingerprint"], base["exact"]["fingerprint"])
    layers = pm.layer_metrics(trace, scale_threads)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{run_id:x}.json")
    with open(path, "w") as f:
        json.dump({"run_id": run_id, "workload": workload, "seed": seed, "machine": mclass,
                   "layers": layers, "passes": passes, "spans": trace["spans"]}, f)
    log(f"spans: {os.path.relpath(path, ROOT)} ({len(trace['spans'])} spans, run id {run_id:x})")
    return layers


def print_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>16.6g} {unit:<9} {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true",
                    help="rewrite this workload's pinned default-seed results in pins.json")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    if args.seed is None and not args.repin:
        raise SystemExit("perfbench: --seed is required")
    build()
    info = call("info")
    threads = THREADS
    scale_threads = min(MAX_SCALE_THREADS, os.cpu_count() or 1)
    if args.repin:
        repin(args.workload, threads)
        return 0
    mclass = machine_class(info, threads, scale_threads)
    checks = pm.Checks()

    print(f"perfbench {args.workload} seed={args.seed} threads={threads} trace={args.trace}")
    if args.trace == 0:
        values, raw, samples, steal_note = untraced(args.workload, args.seed, args.seconds, threads,
                                                    scale_threads, checks)
        print(f"  {steal_note}")
        declared = spec["end_to_end"]
        rows = []
        for m in declared:
            xs = samples[m["name"]]
            rows.append((m["name"], values[m["name"]], m["unit"],
                         f"as measured {raw[m['name']]:.6g}: median of {len(xs)} passes,"
                         f" (Q3 - Q1) / median {pm.quartile_spread(xs):.3f}"))
    else:
        values = traced(args.workload, args.seed, threads, scale_threads, checks, mclass)
        declared = spec["per_layer"]
        rows = [(m["name"], values[m["name"]], m["unit"], "") for m in declared]
    rows.append(("fail_frac", checks.fail_frac(), "ratio",
                 f"{checks.failed} of {checks.attempted} checks failed"))
    print_table(rows)
    for name, detail in checks.failures():
        print(f"  CHECK FAILED: {name}: {detail}")
    print("machine_class " + json.dumps(mclass, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
