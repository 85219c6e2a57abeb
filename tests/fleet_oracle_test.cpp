// fleet_oracle_test.cpp — the sharded fleet kernel against its independent
// oracle, stated as a differential property:
//
//   For a beacon-mode core::FleetConfig, the shared event timeline
//   (core::FleetAnalysis::run: N scalar nodes + one net::BaseStation on
//   one simulator) and the sharded engine at one domain
//   (fleet::ShardedFleetEngine::run(spec_from_fleet_config(cfg))) agree
//   exactly on frames on air, collisions, deliveries and delivered bits.
//
// The two share nothing but the interval-draw discipline: one steps
// every node through the event simulator and resolves capture at the
// station, the other bills a calibrated closed-form cycle and resolves
// capture per epoch. Trials are drawn from a seeded Rng (fleet size,
// horizon, timer tolerance and the fleet seed itself), so the property
// covers many phase-drift patterns rather than one hand-picked fleet. A
// failing draw is shrunk — halve the fleet, then the horizon, while it
// still fails — and reported as a one-line repro.
//
// Out of scope: ARQ (the kernel ignores gateway collisions when deciding
// retries) and the fault subset — both documented approximations, not
// exact claims.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "fleet/engine.hpp"

using namespace pico;

namespace {

struct Counts {
  std::uint64_t frames_on_air = 0;
  std::uint64_t collided = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_payload_bits = 0;
  bool operator==(const Counts&) const = default;
};

std::string describe(const Counts& c) {
  return "on_air=" + std::to_string(c.frames_on_air) +
         " collided=" + std::to_string(c.collided) +
         " delivered=" + std::to_string(c.delivered) +
         " bits=" + std::to_string(c.delivered_payload_bits);
}

Counts shared_timeline(const core::FleetConfig& cfg) {
  const core::FleetResult r = core::FleetAnalysis::run(cfg);
  return {r.frames_total, r.frames_collided, r.frames_delivered,
          r.delivered_payload_bits};
}

Counts sharded_kernel(const core::FleetConfig& cfg) {
  const fleet::FleetMetrics m =
      fleet::ShardedFleetEngine::run(fleet::spec_from_fleet_config(cfg));
  return {m.frames_on_air, m.collided, m.delivered, m.delivered_payload_bits};
}

bool agrees(const core::FleetConfig& cfg) {
  return shared_timeline(cfg) == sharded_kernel(cfg);
}

// Beacon mode on the FleetConfig link defaults (every link at the
// uplink's 1 m).
core::FleetConfig draw_config(Rng& rng) {
  core::FleetConfig cfg;
  cfg.nodes = 2 + static_cast<int>(rng.below(47));  // 2..48
  cfg.sim_time = Duration{rng.uniform(60.0, 300.0)};
  cfg.interval_tolerance = rng.uniform(0.001, 0.01);
  cfg.seed = rng.next();
  return cfg;
}

std::string repro_line(const core::FleetConfig& cfg) {
  std::ostringstream os;
  os.precision(17);
  os << "repro: nodes=" << cfg.nodes << " sim_time_s=" << cfg.sim_time.value()
     << " interval_tolerance=" << cfg.interval_tolerance << " seed=" << cfg.seed;
  return os.str();
}

// Halve the fleet, then the horizon, for as long as the smaller config
// still disagrees: the survivor is the smallest repro this search finds.
core::FleetConfig shrink(core::FleetConfig cfg) {
  while (cfg.nodes > 2) {
    core::FleetConfig smaller = cfg;
    smaller.nodes = cfg.nodes / 2;
    if (agrees(smaller)) break;
    cfg = smaller;
  }
  while (cfg.sim_time.value() > 12.0) {
    core::FleetConfig shorter = cfg;
    shorter.sim_time = Duration{cfg.sim_time.value() / 2.0};
    if (agrees(shorter)) break;
    cfg = shorter;
  }
  return cfg;
}

}  // namespace

TEST(FleetOracleTest, ShardedKernelMatchesSharedTimelineOnDrawnBeaconFleets) {
  Rng draws(20081011);
  std::uint64_t collided_total = 0;
  for (int trial = 0; trial < 32; ++trial) {
    const core::FleetConfig cfg = draw_config(draws);
    const Counts want = shared_timeline(cfg);
    const Counts got = sharded_kernel(cfg);
    ASSERT_GT(want.frames_on_air, 0u) << repro_line(cfg);
    collided_total += want.collided;
    if (want == got) continue;
    const core::FleetConfig minimal = shrink(cfg);
    ADD_FAILURE() << "trial " << trial << ": sharded kernel disagrees with the shared "
                  << "timeline\n  shared:  " << describe(want) << "\n  sharded: "
                  << describe(got) << "\n  drawn " << repro_line(cfg) << "\n  shrunk "
                  << repro_line(minimal) << "\n  shrunk shared:  "
                  << describe(shared_timeline(minimal)) << "\n  shrunk sharded: "
                  << describe(sharded_kernel(minimal));
  }
  // The draws must exercise the capture/collision rule, not only clean air.
  EXPECT_GT(collided_total, 0u);
}
