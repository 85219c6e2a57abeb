// E20 (extension) — ARQ fleets and mid-run battery depletion at scale.
//
// Two lanes on the sharded fleet engine, both exercising the kernel paths
// the beacon benches never touch:
//
//   1. Jam storm on a stop-and-wait ARQ uplink: a mid-run channel-loss
//      window makes every domain burn retry chains, so the tabulated
//      E(k-retries) billing, the retry/give-up counters and the per-wake
//      outcome draws all run hot. Re-run regrouped onto different
//      shard/thread counts: the fingerprint must not move.
//
//   2. Tight-budget retirement: the same fleet with a battery budget
//      about half the whole-run spend. Every node's ledger crosses the
//      budget mid-run, the wake calendar retires it at its interpolated
//      depletion time, and the fleet goes quiet — measurably fewer
//      frames than its rich-budget twin, node_seconds_alive strictly
//      inside (0, nodes x sim_time), and the same bit-identity contract.
//
// The --json metrics are the deterministic counters only, and the
// pins_bench_fleet_arq ctest compares them exactly with BENCH_BASELINE.json
// (tools/check_bench.py). Wall-clock rates print in the tables but stay
// out of the report; perfbench/ measures throughput.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "fleet/engine.hpp"

using namespace pico;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The common fleet: highway density, stop-and-wait ARQ with the full
// retry budget, a jam window over the middle half of the run.
fleet::FleetSpec arq_spec() {
  fleet::FleetSpec spec;
  spec.nodes = 20000;
  spec.domains = 200;
  spec.sim_time_s = 60.0;
  spec.randomize_phase = true;
  spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  spec.node.link.arq.max_retries = 3;
  spec.faults.channel_loss(10.0, 40.0, 0.6);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io("fleet_arq", argc, argv);
  bench::heading("E20", "ARQ fleet under jam + tight-budget retirement");

  // --- Lane 1: jam storm on the ARQ uplink ----------------------------------
  const fleet::FleetSpec spec = arq_spec();
  const auto t_arq = std::chrono::steady_clock::now();
  const fleet::FleetMetrics arq = fleet::ShardedFleetEngine::run(spec, io.telemetry());
  const double arq_wall_s = wall_seconds_since(t_arq);
  const double arq_rate =
      static_cast<double>(spec.nodes) * spec.sim_time_s / arq_wall_s;

  fleet::FleetSpec regrouped = spec;
  regrouped.shards = 7;
  regrouped.threads = 2;
  const bool arq_identical =
      fleet::ShardedFleetEngine::run(regrouped).fingerprint() == arq.fingerprint();

  const double retries_per_wake =
      static_cast<double>(arq.arq_retries) / static_cast<double>(arq.wake_cycles);

  Table ta("20k ARQ nodes, 60 s, jam over [10, 50] s");
  ta.set_header({"metric", "value"});
  ta.add_row({"wake cycles", std::to_string(arq.wake_cycles)});
  ta.add_row({"frames on air", std::to_string(arq.frames_on_air)});
  ta.add_row({"frames delivered", std::to_string(arq.delivered)});
  ta.add_row({"retries burned", std::to_string(arq.arq_retries)});
  ta.add_row({"chains given up", std::to_string(arq.arq_gaveup)});
  ta.add_row({"retries per wake", fixed(retries_per_wake, 3)});
  ta.add_row({"wall time", fixed(arq_wall_s, 2) + " s"});
  ta.add_row({"node-sim-seconds / wall-second", si(arq_rate, "node-s/s")});
  ta.add_note("stop-and-wait ARQ, 3 retries; every retry re-rolls the");
  ta.add_note("channel and bills the tabulated chain energy E(k).");
  ta.print(std::cout);

  // --- Lane 2: the same fleet on a starvation budget ------------------------
  fleet::FleetSpec tight = spec;
  // Roughly half the whole-run sleep + self-discharge + cycle spend:
  // every ledger crosses the budget mid-run.
  tight.battery_budget_override_j = 2.5e-4;
  const auto t_tight = std::chrono::steady_clock::now();
  const fleet::FleetMetrics dead = fleet::ShardedFleetEngine::run(tight);
  const double tight_wall_s = wall_seconds_since(t_tight);
  const double tight_rate =
      static_cast<double>(tight.nodes) * tight.sim_time_s / tight_wall_s;

  fleet::FleetSpec tight_regrouped = tight;
  tight_regrouped.shards = 13;
  tight_regrouped.threads = 4;
  const bool tight_identical =
      fleet::ShardedFleetEngine::run(tight_regrouped).fingerprint() ==
      dead.fingerprint();

  const double alive_frac =
      dead.node_seconds_alive /
      (static_cast<double>(tight.nodes) * tight.sim_time_s);

  Table tt("same fleet, battery budget ~half the run's spend");
  tt.set_header({"metric", "rich budget", "tight budget"});
  tt.add_row({"nodes dead", std::to_string(arq.nodes_dead),
              std::to_string(dead.nodes_dead)});
  tt.add_row({"frames on air", std::to_string(arq.frames_on_air),
              std::to_string(dead.frames_on_air)});
  tt.add_row({"node-seconds alive", fixed(arq.node_seconds_alive, 0),
              fixed(dead.node_seconds_alive, 0)});
  tt.add_row({"alive fraction", "1.00", fixed(alive_frac, 2)});
  tt.add_row({"wall time", "", fixed(tight_wall_s, 2) + " s"});
  tt.add_row({"node-sim-seconds / wall-second", "", si(tight_rate, "node-s/s")});
  tt.add_note("retired nodes leave the wake calendar at their interpolated");
  tt.add_note("depletion time: no frames, no draws, no energy after death.");
  tt.print(std::cout);

  if (obs::TelemetrySession* s = io.telemetry()) {
    arq.publish_metrics(s->metrics());
  }

  io.metric("frames_on_air", static_cast<double>(arq.frames_on_air));
  io.metric("frames_delivered", static_cast<double>(arq.delivered));
  io.metric("arq_retries", static_cast<double>(arq.arq_retries));
  io.metric("arq_gaveup", static_cast<double>(arq.arq_gaveup));
  io.metric("retries_per_wake", retries_per_wake);
  io.metric("tight_nodes_dead", static_cast<double>(dead.nodes_dead));
  io.metric("tight_frames_on_air", static_cast<double>(dead.frames_on_air));
  io.metric("tight_alive_fraction", alive_frac);

  bench::PaperCheck check("E20 / ARQ + depletion");
  check.add_text("jam window burns retry chains", "> 0 retries",
                 std::to_string(arq.arq_retries) + " retries",
                 arq.arq_retries > 0 && arq.arq_gaveup > 0);
  check.add_text("retries stay within the per-wake budget", "<= 3 per wake",
                 fixed(retries_per_wake, 3), retries_per_wake <= 3.0);
  check.add_text("rich budget keeps every node alive", "0 dead",
                 std::to_string(arq.nodes_dead) + " dead", arq.nodes_dead == 0);
  check.add_text("tight budget retires nodes mid-run", "every node dead",
                 std::to_string(dead.nodes_dead) + " / " +
                     std::to_string(tight.nodes),
                 dead.nodes_dead == tight.nodes);
  check.add_text("retired fleet goes quiet", "fewer frames than rich twin",
                 std::to_string(dead.frames_on_air) + " vs " +
                     std::to_string(arq.frames_on_air),
                 dead.frames_on_air < arq.frames_on_air);
  check.add_text("alive time strictly inside the run", "0 < frac < 1",
                 fixed(alive_frac, 2), alive_frac > 0.0 && alive_frac < 1.0);
  check.add_text("ARQ fleet bit-identical across regrouping",
                 "fingerprints equal", arq_identical ? "equal" : "DIFFER",
                 arq_identical);
  check.add_text("retiring fleet bit-identical across regrouping",
                 "fingerprints equal", tight_identical ? "equal" : "DIFFER",
                 tight_identical);
  return io.finish(check);
}
