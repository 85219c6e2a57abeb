"""Arithmetic of the benchmark: order statistics, unit costs, the
correctness gate and the per-layer attribution of a traced run.

Everything here is a pure function of numbers the ``perfbench`` binary
printed, so it is unit-tested on its own (test_pbmetrics.py).
"""

import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10
# Reconciliation residuals above this share of stepping time are flagged
# as unexplained cost.
RESIDUAL_FLAG = 0.15


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated percentile (numpy's default method), p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when n is too small for even the median."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def timing_summary(values):
    """p50, the tail percentile, which percentile that is, and the count."""
    n = len(values)
    p = tail_percentile(n)
    return {
        "p50": percentile(values, 50.0) if n else 0.0,
        "ptail": percentile(values, p) if p is not None else 0.0,
        "ptail_pct": p if p is not None else 0.0,
        "samples": n,
    }


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4);
    0 for a single sample."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def per_unit(total, count, scale=1.0):
    """total / count * scale, 0 for an empty base."""
    return total * scale / count if count else 0.0


def ns_per(seconds, count):
    return per_unit(seconds, count, 1e9)


def mib_per_s(nbytes, seconds):
    return per_unit(nbytes / 2.0**20, seconds) if seconds > 0 else 0.0


# --- Host speed --------------------------------------------------------------

# The unit of host speed: a time of the host reference kernel
# (host_reference_s() in the driver binary) that stands for the benchmark's
# machine class with its host at full speed. It is half the kernel's time
# measured while the host ran at half speed (highway_dense at one thread
# took 2.1-2.2 s there, against 1.05 s at full speed); see README.md.
HOST_REFERENCE_S = 0.016
# End-to-end metrics that are times, and the one that is a rate per time.
HOST_TIMES = ("wall_s", "setup_s", "cpu_s")
HOST_RATES = ("node_sim_s_per_wall_s",)


def host_speed(ref_samples):
    """How fast the host ran during a run, relative to full speed:
    HOST_REFERENCE_S over the median time of the reference kernel."""
    return HOST_REFERENCE_S / median(ref_samples)


def host_scaled(raw, speed):
    """End-to-end medians in full-speed host seconds: times x speed,
    rates / speed; anything else (memory) as measured."""
    out = {}
    for name, value in raw.items():
        if name in HOST_TIMES:
            out[name] = value * speed
        elif name in HOST_RATES:
            out[name] = value / speed
        else:
            out[name] = value
    return out


# --- Correctness gate --------------------------------------------------------


class Checks:
    """Named pass/fail results; fail_frac = failed / attempted."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def equal(self, name, got, want):
        return self.add(name, got == want, "" if got == want else f"got {got!r}, want {want!r}")

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.results if not ok)

    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def failures(self):
        return [(n, d) for n, ok, d in self.results if not ok]


def check_pins(checks, label, pass_out, pins):
    """Compare a pass's deterministic results (counts, fingerprints,
    per-trial power) with the pinned default-seed results, key by key."""
    for key, want in sorted(pins.get("exact", {}).items()):
        checks.equal(f"{label}: pinned {key}", pass_out["exact"].get(key), want)
    if "trial_power_w" in pins:
        checks.equal(f"{label}: pinned trial_power_w", pass_out["trial_power_w"], pins["trial_power_w"])


def same_results(checks, name, a, b):
    """Equal deterministic results: every exact value and per-trial power."""
    ea, eb = a["exact"], b["exact"]
    diff = [k for k in sorted(set(ea) | set(eb)) if ea.get(k) != eb.get(k)]
    if a["trial_power_w"] != b["trial_power_w"]:
        diff.append("trial_power_w")
    return checks.add(name, not diff, "differs: " + ", ".join(diff) if diff else "")


# --- Per-layer attribution ---------------------------------------------------


def span_durations(spans, name):
    return [s["end_s"] - s["start_s"] for s in spans if s["name"] == name]


def span_total(spans, name):
    return sum(span_durations(spans, name))


def span_median(spans, name):
    """Median duration of the spans called name; 0 when there are none."""
    xs = span_durations(spans, name)
    return median(xs) if xs else 0.0


def reconcile(stepping_s, phases, counts):
    """Unit costs of one pass and the stepping time its phases leave
    unexplained.

    phases: advance/exchange/resolve/obs/finalize seconds of one pass.
    counts: wake_cycles, frames_on_air, edge_exports, epochs of that pass.
    A unit cost is a phase time over its count from the same pass, so
    sum(unit cost x count) is the phase sum by construction; the residual
    is therefore |stepping - sum of phases| / stepping, the same quantity
    as the per-epoch barrier cost times epochs over stepping."""
    phase_sum = sum(phases[k] for k in ("advance_s", "exchange_s", "resolve_s", "obs_s", "finalize_s"))
    residual = abs(stepping_s - phase_sum) / stepping_s if stepping_s > 0 else 0.0
    return {
        "advance_ns_per_wake": ns_per(phases["advance_s"], counts["wake_cycles"]),
        "resolve_ns_per_frame": ns_per(phases["resolve_s"], counts["frames_on_air"]),
        "exchange_ns_per_edge_frame": ns_per(phases["exchange_s"], counts["edge_exports"]),
        "barrier_us_per_epoch": per_unit(stepping_s - phase_sum, counts["epochs"], 1e6),
        "reconcile_residual_frac": residual,
        "reconcile_flagged": 1.0 if residual > RESIDUAL_FLAG else 0.0,
    }


def layer_metrics(trace, scale_threads):
    """Per-layer metrics of one traced invocation (``perfbench trace``),
    whose measured passes ran at one thread and whose scaled twin ran at
    scale_threads.

    Layers a workload does not exercise report 0."""
    passes = trace["passes"]
    spans = trace["spans"]
    traced, scaled = passes["traced"], passes["scaled"]
    tl, te = traced["layer"], traced["exact"]
    out = {}

    # fleet: setup split, epochs, phases, unit costs, counts.
    calibrate = span_median(spans, "fleet.calibrate")
    grid = span_median(spans, "fleet.harvest_grid")
    ctor = span_durations(spans, "fleet.session_ctor")
    out["fleet.calibrate_s"] = calibrate
    out["fleet.harvest_grid_s"] = grid
    out["fleet.layout_s"] = ctor[0] - calibrate - grid if ctor else 0.0
    epochs_ms = [d * 1e3 for d in span_durations(spans, "fleet.epoch")]
    for k, v in timing_summary(epochs_ms).items():
        out[f"fleet.epoch_ms.{k}"] = v
    out["fleet.epochs"] = len(epochs_ms)
    out["fleet.finish_s"] = span_total(spans, "fleet.finish")
    for k in ("advance_s", "exchange_s", "resolve_s", "obs_s", "finalize_s"):
        out[f"fleet.phase.{k}"] = tl.get(f"phase.{k}", 0.0)

    # Unit costs need phases and counts of one whole run; a resumed run's
    # phase clock restarts at restore, so its uninterrupted twin is used.
    whole = passes.get("uninterrupted", traced)
    wl = whole["layer"]
    if "phase.epochs" in wl:
        stepping = whole["timing"]["wall_s"] - whole["timing"]["setup_s"]
        phases = {k: wl[f"phase.{k}"] for k in ("advance_s", "exchange_s", "resolve_s", "obs_s", "finalize_s")}
        counts = {
            "wake_cycles": whole["exact"]["fleet.wake_cycles"],
            "frames_on_air": whole["exact"]["fleet.frames_on_air"],
            "edge_exports": whole["exact"]["fleet.edge_exports"],
            "epochs": wl["phase.epochs"],
        }
        for k, v in reconcile(stepping, phases, counts).items():
            out[f"fleet.{k}"] = v
        out["fleet.active_domain_frac"] = per_unit(wl["phase.domains_advanced"], wl["phase.domain_epochs"])
    else:
        for k in ("advance_ns_per_wake", "resolve_ns_per_frame", "exchange_ns_per_edge_frame",
                  "barrier_us_per_epoch", "reconcile_residual_frac", "reconcile_flagged",
                  "active_domain_frac"):
            out[f"fleet.{k}"] = 0.0
    for k in ("wake_cycles", "frames_on_air", "delivered", "collided", "edge_exports",
              "arq_retries", "arq_gaveup", "nodes_dead"):
        out[f"fleet.{k}"] = te.get(f"fleet.{k}", 0)
    for k in ("domain_epochs", "domains_advanced", "domains_resolved"):
        out[f"fleet.{k}"] = tl.get(f"phase.{k}", 0)

    # runtime: median wall time of the one-thread passes over that of the
    # passes at scale_threads, and the runner counters of the latter (a
    # one-thread runner runs its trials inline, with nothing to steal).
    pairs = trace["pairs"]
    speedup = per_unit(median(pairs["untraced"]["wall_s"]), median(pairs["scaled"]["wall_s"]))
    out["runtime.speedup"] = speedup
    out["runtime.efficiency"] = speedup / scale_threads
    out["runtime.steals"] = scaled["layer"].get("runtime.steals", 0.0)
    out["runtime.idle_s"] = scaled["layer"].get("runtime.idle_s", 0.0)

    # obs: recorder volume and the hooks-attached vs detached CPU pair.
    out["obs.series_rows"] = te.get("obs.series_rows", 0)
    out["obs.flight_events"] = tl.get("obs.flight_events", 0.0)
    if "hooks_detached" in pairs:
        out["obs.overhead_frac"] = (
            per_unit(median(pairs["uninterrupted"]["cpu_s"]), median(pairs["hooks_detached"]["cpu_s"])) - 1.0
        )
    else:
        out["obs.overhead_frac"] = 0.0

    # ckpt: blob size and save/restore throughput.
    nbytes = tl.get("ckpt.bytes", 0.0)
    save_s = span_total(spans, "ckpt.save")
    restore_s = span_total(spans, "ckpt.restore")
    out["ckpt.bytes"] = nbytes
    out["ckpt.save_s"] = save_s
    out["ckpt.restore_s"] = restore_s
    out["ckpt.save_mb_per_s"] = mib_per_s(nbytes, save_s)
    out["ckpt.restore_mb_per_s"] = mib_per_s(nbytes, restore_s)

    # core / sim / circuits: the scalar node trials.
    for k, v in timing_summary(span_durations(spans, "core.trial")).items():
        out[f"core.trial_s.{k}"] = v
    out["core.wake_cycles"] = te.get("core.wake_cycles", 0)
    out["sim.events_dispatched"] = te.get("sim.events_dispatched", 0)
    out["sim.ns_per_event"] = ns_per(tl.get("sim.probe_wall_s", 0.0), tl.get("sim.probe_events", 0.0))
    steps = tl.get("circuits.steps", 0.0)
    for k in ("steps", "newton_iterations", "lu_factorizations", "lu_cache_hits",
              "lu_cache_misses", "lte_rejections"):
        out[f"circuits.{k}"] = tl.get(f"circuits.{k}", 0.0)
    out["circuits.ns_per_step"] = ns_per(span_total(spans, "core.node_run"), steps)
    out["circuits.newton_per_step"] = per_unit(tl.get("circuits.newton_iterations", 0.0), steps)
    out["circuits.accept_frac"] = per_unit(steps, steps + tl.get("circuits.lte_rejections", 0.0))

    # host: the reference kernel after the invocation's passes.
    out["host.ref_ms"] = trace["host_ref_s"] * 1e3
    out["host.speed"] = host_speed([trace["host_ref_s"]])

    # Tracing overhead: median traced minus median untraced wall time over
    # the alternating pairs.
    base_wall = median(pairs["untraced"]["wall_s"])
    overhead = median(pairs["traced"]["wall_s"]) - base_wall
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = per_unit(overhead, base_wall)
    return out
