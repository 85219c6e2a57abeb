"""Tests for the benchmark's own arithmetic and its correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

No build is needed: the driver binary is replaced by canned outputs.
"""

import contextlib
import io
import json
import statistics
import unittest
from unittest import mock

import pbmetrics as pm
import run


def fleet_pass(fingerprint=7, wall=2.0, setup=0.5):
    return {
        "timing": {"wall_s": wall, "setup_s": setup, "cpu_s": 3.0, "node_sim_s": 6e7},
        "exact": {"fingerprint": fingerprint, "fleet.nodes": 100, "fleet.wake_cycles": 1000,
                  "fleet.frames_on_air": 1000, "fleet.edge_exports": 500},
        "trial_power_w": [],
        "layer": {"phase.domains_advanced": 20, "phase.domain_epochs": 20},
    }


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(pm.tail_percentile(19))
        self.assertEqual(pm.tail_percentile(20), 50.0)
        self.assertEqual(pm.tail_percentile(39), 50.0)
        self.assertEqual(pm.tail_percentile(40), 75.0)
        self.assertEqual(pm.tail_percentile(100), 90.0)
        self.assertEqual(pm.tail_percentile(120), 90.0)
        self.assertEqual(pm.tail_percentile(200), 95.0)
        self.assertEqual(pm.tail_percentile(1000), 99.0)
        self.assertEqual(pm.tail_percentile(1800), 99.0)
        self.assertEqual(pm.tail_percentile(10000), 99.9)

    def test_linear_percentile(self):
        self.assertEqual(pm.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(pm.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(pm.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(pm.percentile(range(1, 11), 90), 9.1)

    def test_timing_summary_reports_the_count(self):
        s = pm.timing_summary([float(i) for i in range(1, 101)])
        self.assertEqual(s["samples"], 100)
        self.assertEqual(s["ptail_pct"], 90.0)
        self.assertAlmostEqual(s["p50"], 50.5)
        self.assertAlmostEqual(s["ptail"], 90.1)
        empty = pm.timing_summary([])
        self.assertEqual((empty["samples"], empty["ptail_pct"]), (0, 0.0))

    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(pm.quartile_spread(xs), (q3 - q1) / q2)
        self.assertEqual(pm.quartile_spread([3.0]), 0.0)


class UnitCosts(unittest.TestCase):
    def test_rates(self):
        self.assertEqual(pm.mib_per_s(2**20, 0.5), 2.0)
        self.assertEqual(pm.mib_per_s(2**20, 0.0), 0.0)
        self.assertAlmostEqual(pm.ns_per(1.0, 10**6), 1000.0)
        self.assertEqual(pm.ns_per(1.0, 0), 0.0)

    def test_reconcile_names_time_outside_the_phases(self):
        phases = {"advance_s": 0.6, "exchange_s": 0.1, "resolve_s": 0.2, "obs_s": 0.0, "finalize_s": 0.0}
        counts = {"wake_cycles": 2 * 10**6, "frames_on_air": 10**6, "edge_exports": 10**5, "epochs": 100}
        r = pm.reconcile(1.0, phases, counts)
        self.assertAlmostEqual(r["advance_ns_per_wake"], 300.0)
        self.assertAlmostEqual(r["resolve_ns_per_frame"], 200.0)
        self.assertAlmostEqual(r["exchange_ns_per_edge_frame"], 1000.0)
        self.assertAlmostEqual(r["barrier_us_per_epoch"], 1000.0)
        self.assertAlmostEqual(r["reconcile_residual_frac"], 0.1)
        # The residual is the barrier cost over the whole run, not a second number.
        self.assertAlmostEqual(r["reconcile_residual_frac"], r["barrier_us_per_epoch"] * 1e-6 * counts["epochs"] / 1.0)
        self.assertEqual(r["reconcile_flagged"], 0.0)
        self.assertEqual(pm.reconcile(2.0, phases, counts)["reconcile_flagged"], 1.0)

    def test_layer_metrics_from_spans(self):
        def span(name, start, end):
            return {"run": 1, "name": name, "tid": 0, "depth": 0, "start_s": start, "end_s": end}

        traced = {
            "timing": {"wall_s": 1.1, "setup_s": 0.1, "cpu_s": 1.0, "node_sim_s": 1.0},
            "exact": {"core.wake_cycles": 8, "sim.events_dispatched": 300},
            "trial_power_w": [1e-6] * 20,
            "layer": {"circuits.steps": 1000.0, "circuits.newton_iterations": 2500.0,
                      "circuits.lte_rejections": 250.0, "sim.probe_wall_s": 3e-4,
                      "sim.probe_events": 150.0, "ckpt.bytes": 3 * 2**20},
        }
        spans = [span("core.trial", 0, 0.1 * (i + 1)) for i in range(20)]
        spans += [span("core.node_run", 0, 0.002), span("core.node_run", 0, 0.003)]
        spans += [span("ckpt.save", 0, 0.5), span("ckpt.restore", 1, 2.5)]
        trace = {
            "host_ref_s": 0.05,
            "passes": {"traced": traced,
                       "scaled": dict(traced, layer={"runtime.steals": 3.0, "runtime.idle_s": 0.25})},
            "spans": spans,
            "pairs": {"untraced": {"wall_s": [1.2, 1.0, 1.1], "cpu_s": [2.0, 2.0, 2.0]},
                      "traced": {"wall_s": [1.3, 1.1, 1.2], "cpu_s": [2.0, 2.0, 2.0]},
                      "scaled": {"wall_s": [1.0, 0.5, 0.4], "cpu_s": [2.0, 2.0, 2.0]}},
        }
        m = pm.layer_metrics(trace, scale_threads=4)
        self.assertEqual(m["core.trial_s.samples"], 20)
        self.assertEqual(m["core.trial_s.ptail_pct"], 50.0)
        self.assertAlmostEqual(m["core.trial_s.p50"], 1.05)
        self.assertAlmostEqual(m["circuits.ns_per_step"], 5000.0)
        self.assertAlmostEqual(m["circuits.newton_per_step"], 2.5)
        self.assertAlmostEqual(m["circuits.accept_frac"], 0.8)
        self.assertAlmostEqual(m["sim.ns_per_event"], 2000.0)
        self.assertAlmostEqual(m["ckpt.save_mb_per_s"], 6.0)
        self.assertAlmostEqual(m["ckpt.restore_mb_per_s"], 2.0)
        self.assertAlmostEqual(m["runtime.speedup"], 1.1 / 0.5)
        self.assertAlmostEqual(m["runtime.efficiency"], 1.1 / 0.5 / 4)
        self.assertEqual(m["runtime.steals"], 3.0)
        self.assertEqual(m["runtime.idle_s"], 0.25)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.1)
        self.assertAlmostEqual(m["host.ref_ms"], 50.0)
        self.assertAlmostEqual(m["host.speed"], pm.HOST_REFERENCE_S / 0.05)
        self.assertEqual(m["fleet.epochs"], 0)
        self.assertEqual(m["fleet.advance_ns_per_wake"], 0.0)
        self.assertEqual(m["obs.overhead_frac"], 0.0)

        # obs overhead: ratio of median CPU times, hooks attached over detached.
        trace["pairs"]["uninterrupted"] = {"wall_s": [1.0] * 3, "cpu_s": [2.4, 2.2, 9.0]}
        trace["pairs"]["hooks_detached"] = {"wall_s": [1.0] * 3, "cpu_s": [2.0, 1.0, 2.1]}
        self.assertAlmostEqual(pm.layer_metrics(trace, scale_threads=4)["obs.overhead_frac"], 0.2)


    def test_layout_subtracts_the_median_probes(self):
        def span(name, dur):
            return {"run": 1, "name": name, "tid": 0, "depth": 0, "start_s": 0.0, "end_s": dur}

        p = fleet_pass()
        spans = [span("fleet.session_ctor", 0.05)]
        spans += [span("fleet.calibrate", d) for d in (0.001, 0.009, 0.002)]
        spans += [span("fleet.harvest_grid", d) for d in (0.03, 0.01, 0.02)]
        trace = {"host_ref_s": 0.025, "passes": {"traced": p, "scaled": p}, "spans": spans,
                 "pairs": {k: {"wall_s": [1.0], "cpu_s": [1.0]} for k in ("untraced", "traced", "scaled")}}
        m = pm.layer_metrics(trace, scale_threads=4)
        self.assertAlmostEqual(m["fleet.calibrate_s"], 0.002)
        self.assertAlmostEqual(m["fleet.harvest_grid_s"], 0.02)
        self.assertAlmostEqual(m["fleet.layout_s"], 0.028)


class HostSpeed(unittest.TestCase):
    def test_times_scale_with_the_reference_and_rates_against_it(self):
        ref = pm.HOST_REFERENCE_S
        self.assertEqual(pm.host_speed([ref]), 1.0)
        # A host at half speed: the reference's median takes twice as long.
        speed = pm.host_speed([2 * ref, 1.9 * ref, 5 * ref])
        self.assertAlmostEqual(speed, 0.5)
        raw = {"wall_s": 2.0, "setup_s": 0.2, "cpu_s": 1.8, "node_sim_s_per_wall_s": 1e7, "peak_rss_mb": 100.0}
        got = pm.host_scaled(raw, speed)
        self.assertEqual(got, {"wall_s": 1.0, "setup_s": 0.1, "cpu_s": 0.9,
                               "node_sim_s_per_wall_s": 2e7, "peak_rss_mb": 100.0})


class Gate(unittest.TestCase):
    def test_fail_frac(self):
        c = pm.Checks()
        c.add("a", True)
        c.add("b", True)
        c.equal("c", 1, 1)
        c.equal("d", 1, 2)
        self.assertEqual((c.attempted, c.failed), (4, 1))
        self.assertEqual(c.fail_frac(), 0.25)
        self.assertEqual(pm.Checks().fail_frac(), 0.0)

    def test_wrong_pinned_fingerprint_fails(self):
        p = fleet_pass(fingerprint=7)
        good = pm.Checks()
        pm.check_pins(good, "pass", p, {"exact": {"fingerprint": 7}})
        self.assertEqual(good.fail_frac(), 0.0)
        bad = pm.Checks()
        pm.check_pins(bad, "pass", p, {"exact": {"fingerprint": 8}})
        self.assertGreater(bad.fail_frac(), 0.0)

    def test_same_results_compares_counts_and_trials(self):
        a = {"exact": {"core.wake_cycles": 8}, "trial_power_w": [1.0, 2.0]}
        c = pm.Checks()
        self.assertTrue(pm.same_results(c, "same", a, dict(a)))
        self.assertFalse(pm.same_results(c, "count differs", a, dict(a, exact={"core.wake_cycles": 9})))
        self.assertFalse(pm.same_results(c, "trial differs", a, dict(a, trial_power_w=[1.0, 2.5])))
        self.assertEqual((c.attempted, c.failed), (3, 2))


class Driver(unittest.TestCase):
    """run.main end to end on canned binary output."""

    def run_main(self, pins, passes, steal=None):
        """passes: (fingerprint, wall_s) of the warm-up pass, then of each
        timed pass; steal: successive host-steal readings (seconds)."""
        passes = iter(passes)
        steal = iter(steal) if steal is not None else None

        def fake_call(*args):
            if args[0] == "info":
                return {"compiler": "test", "build_type": "RelWithDebInfo", "cxx_flags": "-O2 -g",
                        "observability": True}
            if args[0] == "check":
                return {"variants": {"regrouped": fleet_pass(fingerprint=7)}}
            fingerprint, wall = next(passes)
            return {"peak_rss_mb": 100.0, "host_ref_s": pm.HOST_REFERENCE_S,
                    "pass": fleet_pass(fingerprint=fingerprint, wall=wall)}

        out = io.StringIO()
        with mock.patch.object(run, "build"), mock.patch.object(run, "call", fake_call), \
                mock.patch.object(run, "load_pins", lambda w: pins), \
                mock.patch.object(run, "source_digest", lambda: "test"), \
                mock.patch.object(run, "host_steal_s", (lambda: next(steal)) if steal else (lambda: 0.0)), \
                contextlib.redirect_stdout(out):
            run.main(["--workload", "highway_dense", "--seed", str(run.DEFAULT_SEED),
                      "--seconds", "0", "--trace", "0"])
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_result_line(self):
        r = self.run_main({"exact": {"fingerprint": 7}}, [(7, 2.0)] * 4)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertEqual(set(r["metrics"]), {m["name"] for m in run.load_spec()["end_to_end"]})
        self.assertAlmostEqual(r["metrics"]["node_sim_s_per_wall_s"]["value"], 6e7 / 1.5)

    def test_wrong_pin_makes_the_run_incorrect(self):
        r = self.run_main({"exact": {"fingerprint": 8}}, [(7, 2.0)] * 4)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_a_diverging_pass_contributes_no_timing(self):
        # warm-up, then a pass that disagrees with its regrouped twin, then
        # three good passes: the bad pass is counted as failed, not timed.
        r = self.run_main({"exact": {"fingerprint": 7}}, [(7, 2.0), (9, 50.0), (7, 2.0), (7, 2.0), (7, 2.0)])
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertEqual(r["metrics"]["wall_s"]["value"], 2.0)

    def test_a_pass_under_host_steal_is_checked(self):
        # Readings around the warm-up and three timed passes; the second
        # timed pass loses 100 s of machine CPU time to the host. With fewer
        # than MIN_REPS clean passes every checked pass is timed.
        steal = [0, 0, 0, 0, 0, 100, 100, 100]
        r = self.run_main({"exact": {"fingerprint": 7}},
                          [(7, 2.0), (7, 2.0), (7, 50.0), (7, 3.0)], steal)
        self.assertTrue(r["correct"])
        self.assertEqual(r["metrics"]["wall_s"]["value"], 3.0)

    def test_passes_under_host_steal_are_not_timed_when_enough_are_clean(self):
        clean, stolen = ["a", "b", "c"], ["x"]
        self.assertEqual(run.passes_to_time(clean, stolen), clean)
        self.assertEqual(run.passes_to_time(clean[:2], stolen), clean[:2] + stolen)
        self.assertEqual(run.passes_to_time([], []), [])


if __name__ == "__main__":
    unittest.main()
