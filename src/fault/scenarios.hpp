// scenarios.hpp — the named adversarial scenario library.
//
// Each scenario bundles a fully-specified NodeConfig (drive profile,
// harvester attachment, initial state of charge, FaultPlan) with a run
// length, so the soak harness (tests/fault_scenario_test.cpp and
// bench_fault_scenarios) can iterate "all the hostile runs we know about"
// and assert the same invariants on every one: no energy creation, no
// negative state of charge, finite waveforms, graceful degradation.
// Scenario names are stable — they key golden traces under tests/golden/
// and the per-scenario pins of the fault_scenarios entry in
// BENCH_BASELINE.json.
#pragma once

#include <string>
#include <vector>

#include "core/node.hpp"
#include "fault/plan.hpp"

namespace pico::fault {

struct Scenario {
  std::string name;
  std::string summary;
  core::NodeConfig config;   // includes the FaultPlan under config.faults
  Duration sim_time{180.0};
  bool expect_brownout = false;  // the scenario is designed to trip the brownout path
};

// All named scenarios, in stable order: tire_stop_and_go, cold_soak_nimh,
// dying_supercap, lossy_channel, lossy_channel_arq.
[[nodiscard]] std::vector<Scenario> scenario_library();

[[nodiscard]] std::vector<std::string> scenario_names();

// Look up one scenario by name; throws DesignError if unknown.
[[nodiscard]] Scenario make_scenario(const std::string& name);

// Copy of `s` with the harvest path evaluated at a different fidelity
// (behavioral sampling vs the MNA rectifier netlist).
[[nodiscard]] Scenario with_fidelity(Scenario s, core::NodeConfig::HarvestFidelity f);

}  // namespace pico::fault
