// workloads.hpp — the four benchmark workloads, driven through the public
// APIs of fleet, ckpt, obs, core and runtime.
//
// Every workload is a pure function of (name, seed): the seed becomes
// FleetSpec::seed or the Monte Carlo base seed, and nothing else about
// the inputs varies. Thread and shard counts only group work, so the
// deterministic results (counts, fingerprints, per-trial power) must not
// move with them — the checks in main.cpp rely on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pico::obs {
class Tracer;
}

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  unsigned threads = 1;    // explicit; never 0 ("every core")
  std::size_t shards = 0;  // fleet: 0 = one shard per domain
  // Non-null: traced run. Spans go around each public library call (session
  // construction, one epoch's run_until, save, restore, finish, a trial's
  // node construction and run); a null tracer makes every span a no-op.
  pico::obs::Tracer* tracer = nullptr;
  // arq_soak_resume: run the save -> fresh session -> restore leg (false:
  // the uninterrupted twin), and attach the series + flight hooks.
  bool resume = true;
  bool hooks = true;
  // node_sweep_circuit: publish the library's counters (transient engine,
  // runner) into Outcome::layer; a traced pass always does.
  bool counters = false;
};

// Host cost of one pass, measured around the public calls.
struct Timing {
  double wall_s = 0.0;      // first construction -> final result
  double setup_s = 0.0;     // session construction / runner + trials x node construction
  double cpu_s = 0.0;       // process user + system over the same interval
  double node_sim_s = 0.0;  // simulated node-seconds
};

struct Outcome {
  Timing timing;
  // Deterministic results, compared exactly by the checks.
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  // node_sweep_circuit: average battery power of each trial [W].
  std::vector<double> trial_power_w;
  // Layer figures (phase times, counters, checkpoint sizes) for the
  // traced run's attribution; wall-clock values are machine-relative.
  std::vector<std::pair<std::string, double>> layer;
};

// Run one pass of `workload`. Throws on an unknown name.
Outcome run_workload(const std::string& workload, const RunOptions& opt);

// Process CPU time (user + system, all threads) and peak resident set.
double process_cpu_s();
double peak_rss_mb();

// Host speed probe: the median wall time of a fixed kernel that uses no
// library code (8M xorshift-driven reads and writes into a 16 KiB table,
// a square root each), run 5 times. The host's speed moves by up to a
// factor of two for tens of minutes while other tenants load it; the
// kernel moves with it, and the program's own speed does not touch it.
double host_reference_s();

}  // namespace perfbench
