#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "fleet/engine.hpp"
#include "fleet/kernel.hpp"
#include "harvest/profiles.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/tracer.hpp"
#include "runtime/parallel.hpp"

namespace perfbench {
namespace {

using namespace pico;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workload shapes ---------------------------------------------------------

// E17: a 100k-node highway, ~100 beacon nodes per 8 m cell, phases
// decorrelated. 30 s epochs at a 6 s interval: every domain has work
// every epoch, so the advance/exchange/resolve kernels carry the run.
fleet::FleetSpec highway_dense(std::uint64_t seed) {
  fleet::FleetSpec s;
  s.seed = seed;
  s.nodes = 100000;
  s.domains = 1000;
  s.nominal_interval_s = 6.0;
  s.randomize_phase = true;
  s.epoch_s = 30.0;
  s.sim_time_s = 600.0;
  return s;
}

// E19: a million parked nodes in 10k domains waking every 10 minutes,
// stepped at 0.5 s. Only ~3% of domain-epochs have a wake due, so setup
// (layout, interval draws), the per-epoch barrier and idle-domain
// skipping dominate.
fleet::FleetSpec million_sparse(std::uint64_t seed) {
  fleet::FleetSpec s;
  s.seed = seed;
  s.nodes = 1000000;
  s.domains = 10000;
  s.nominal_interval_s = 600.0;
  s.randomize_phase = true;
  s.epoch_s = 0.5;
  s.sim_time_s = 900.0;
  return s;
}

// E20 extended: stop-and-wait ARQ through a mid-run jam, and shaker
// harvest on the city cycle until a drought (the vehicle parks) cuts it
// to 5% from t = 20 s on. The first 20 s of driving bank more than the
// run's whole spend without the drought, so the drought is what makes
// the budget bind: it is sized so no node retires before the mid-run
// save and nearly all retire in the resumed half. Run with series and
// flight hooks and a mid-horizon save -> restore.
constexpr double kArqHorizonS = 600.0;
constexpr double kArqSeriesDtS = 5.0;
fleet::FleetSpec arq_soak_resume(std::uint64_t seed) {
  fleet::FleetSpec s;
  s.seed = seed;
  s.nodes = 50000;
  s.domains = 500;
  s.nominal_interval_s = 6.0;
  s.randomize_phase = true;
  s.sim_time_s = kArqHorizonS;
  // The series cadence: hooks would clamp a longer epoch to it, so the
  // hooks-detached twin steps at the same cadence (the E18 pairing).
  s.epoch_s = kArqSeriesDtS;
  s.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  s.node.link.arq.max_retries = 3;
  s.node.drive = harvest::make_city_cycle();
  s.attach_harvester = true;
  s.faults.channel_loss(150.0, 120.0, 0.6);
  s.faults.harvester_derate(20.0, kArqHorizonS - 20.0, 0.05);
  s.battery_budget_override_j = 5.0e-3;
  return s;
}

// E14 with the circuit-level harvest path: part spreads on the MSP430,
// SP12 and TPS60313 (datasheet-class 1-sigma), the shaker on the city
// cycle, the MNA rectifier under the adaptive step controller.
constexpr std::size_t kSweepTrials = 20;
constexpr double kTrialHorizonS = 10.0;

core::NodeConfig sampled_node(Rng& rng) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.harvest_fidelity = core::NodeConfig::HarvestFidelity::kCircuitAdaptive;

  mcu::Msp430::Params mp;
  mp.lpm3 = Current{mp.lpm3.value() * rng.normal(1.0, 0.20)};
  mp.active_base = Current{mp.active_base.value() * rng.normal(1.0, 0.10)};
  mp.active_per_hz *= rng.normal(1.0, 0.10);
  cfg.mcu_params = mp;

  sensors::Sp12Tpms::Params sp;
  sp.sleep_current = Current{sp.sleep_current.value() * rng.normal(1.0, 0.20)};
  sp.convert_current = Current{sp.convert_current.value() * rng.normal(1.0, 0.15)};
  cfg.tpms_params = sp;

  power::ChargePumpTps60313::Params pp;
  pp.iq_snooze = Current{pp.iq_snooze.value() * rng.normal(1.0, 0.25)};
  pp.transfer_loss = clamp(pp.transfer_loss * rng.normal(1.0, 0.15), 0.01, 0.3);
  cfg.charge_pump_params = pp;
  return cfg;
}

// --- Fleet workloads ---------------------------------------------------------

struct FleetObs {
  obs::TimeSeriesRecorder series{kArqSeriesDtS, 4096};
  obs::FlightRecorder flight;
  fleet::FleetObsHooks hooks() {
    fleet::FleetObsHooks h;
    h.series = &series;
    h.flight = &flight;
    return h;
  }
};

// FNV-1a over the raw bytes of every series row and column name: equal
// digests mean bit-identical series.
std::uint64_t series_digest(const obs::TimeSeriesRecorder& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  };
  mix(s.times().data(), s.times().size() * sizeof(double));
  for (std::uint32_t id = 0; id < s.series_count(); ++id) {
    mix(s.name(id).data(), s.name(id).size());
    mix(s.column(id).data(), s.column(id).size() * sizeof(double));
  }
  return h;
}

// Runs of each set-up probe in a traced fleet pass.
constexpr int kProbeRepeats = 3;

// One run_until per epoch, each its own span.
void step_epochs(fleet::FleetSession& session, double until_s, obs::Tracer* tracer) {
  const double step = session.epoch_step_s();
  while (session.now_s() < until_s) {
    obs::Span epoch(tracer, "fleet.epoch");
    session.run_until(session.now_s() + step);
  }
}

Outcome run_fleet(fleet::FleetSpec spec, bool drill, const RunOptions& opt) {
  spec.threads = opt.threads;
  spec.shards = opt.shards;
  obs::Tracer* tracer = opt.tracer;
  const bool resume = drill && opt.resume;
  Outcome out;

  std::optional<FleetObs> first_obs;
  std::optional<FleetObs> resumed_obs;
  std::unique_ptr<fleet::FleetSession> session;
  std::size_t ckpt_bytes = 0;
  fleet::FleetMetrics m;

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    obs::Span root(tracer, "run");
    fleet::FleetObsHooks hooks;
    if (drill && opt.hooks) hooks = first_obs.emplace().hooks();
    {
      obs::Span s(tracer, "fleet.session_ctor");
      session = std::make_unique<fleet::FleetSession>(spec, hooks);
    }
    out.timing.setup_s = since(t0);
    if (resume) {
      step_epochs(*session, 0.5 * spec.sim_time_s, tracer);
      std::vector<std::uint8_t> blob;
      {
        obs::Span s(tracer, "ckpt.save");
        blob = session->save();
      }
      ckpt_bytes = blob.size();
      session.reset();  // the interruption: the saved blob is all that survives
      fleet::FleetObsHooks resumed_hooks;
      if (opt.hooks) resumed_hooks = resumed_obs.emplace().hooks();
      {
        obs::Span s(tracer, "fleet.session_ctor.resume");
        session = std::make_unique<fleet::FleetSession>(spec, resumed_hooks);
      }
      {
        obs::Span s(tracer, "ckpt.restore");
        session->restore(blob);
      }
    }
    step_epochs(*session, spec.sim_time_s, tracer);
    obs::Span s(tracer, "fleet.finish");
    m = session->finish();
  }
  out.timing.wall_s = since(t0);
  out.timing.cpu_s = process_cpu_s() - cpu0;
  out.timing.node_sim_s = static_cast<double>(spec.nodes) * spec.sim_time_s;

  if (tracer != nullptr) {
    // Layer probes for the attribution of setup: the same public calls the
    // session constructor makes, run outside the timed interval and after
    // it, so the timed constructor starts as cold as the untraced pass's
    // and the probes, like it, follow a complete pass. Each probe runs
    // kProbeRepeats times; the attribution takes the median.
    core::NodeConfig nc = spec.node;
    nc.sample_interval = Duration{spec.nominal_interval_s};
    for (int k = 0; k < kProbeRepeats; ++k) {
      {
        obs::Span s(tracer, "fleet.calibrate");
        (void)fleet::CycleProfile::calibrate(nc);
      }
      if (spec.attach_harvester) {
        obs::Span s(tracer, "fleet.harvest_grid");
        const fleet::HarvestIntegral grid(nc, spec.sim_time_s);
      }
    }
  }

  out.exact = {{"fingerprint", m.fingerprint()},
               {"fleet.nodes", m.nodes},
               {"fleet.wake_cycles", m.wake_cycles},
               {"fleet.frames_on_air", m.frames_on_air},
               {"fleet.delivered", m.delivered},
               {"fleet.collided", m.collided},
               {"fleet.edge_exports", m.edge_exports},
               {"fleet.arq_retries", m.arq_retries},
               {"fleet.arq_gaveup", m.arq_gaveup},
               {"fleet.nodes_dead", m.nodes_dead}};
  const FleetObs* final_obs =
      resumed_obs ? &*resumed_obs : (first_obs ? &*first_obs : nullptr);
  if (final_obs != nullptr) {
    out.exact.emplace_back("obs.flight_fingerprint", final_obs->flight.fingerprint());
    out.exact.emplace_back("obs.series_digest", series_digest(final_obs->series));
    out.exact.emplace_back("obs.series_rows", final_obs->series.rows());
  }

  const fleet::FleetPhaseBreakdown& ph = m.phase;
  out.layer = {{"phase.advance_s", ph.advance_s},
               {"phase.exchange_s", ph.exchange_s},
               {"phase.resolve_s", ph.resolve_s},
               {"phase.obs_s", ph.obs_s},
               {"phase.finalize_s", ph.finalize_s},
               {"phase.epochs", static_cast<double>(ph.epochs)},
               {"phase.domain_epochs", static_cast<double>(ph.domain_epochs)},
               {"phase.domains_advanced", static_cast<double>(ph.domains_advanced)},
               {"phase.domains_resolved", static_cast<double>(ph.domains_resolved)},
               {"ckpt.bytes", static_cast<double>(ckpt_bytes)}};
  if (final_obs != nullptr) {
    out.layer.emplace_back("obs.flight_events",
                           static_cast<double>(final_obs->flight.total_recorded()));
  }
  return out;
}

// --- Node sweep --------------------------------------------------------------

struct TrialResult {
  double avg_power_w = 0.0;
  std::uint64_t wake_cycles = 0;
  std::uint64_t events = 0;
};

// Constructions of each trial's node behind the sweep's set-up figure.
constexpr int kSetupRepeats = 10;

// The sweep's set-up is the runner's construction plus the construction of
// every trial's node (part sampling, netlist, simulator). Inside the sweep
// a construction follows a trial's MNA run on cold caches, takes ~10 us and
// scatters by half from one to the next, so it is not timed there: after
// the sweep, outside its timed interval, each trial's node is built
// kSetupRepeats more times back to back, and set-up is taken as trials x
// the median of those warm constructions (~2 us each), a lower bound of the
// in-sweep cost.
Outcome run_sweep(const RunOptions& opt) {
  const std::size_t n = kSweepTrials;
  obs::Tracer* tracer = opt.tracer;
  std::optional<obs::MetricsRegistry> reg;
  if (tracer != nullptr || opt.counters) reg.emplace();
  std::mutex reg_m;  // publishing registers metrics, which must not race
  std::vector<TrialResult> res(n);
  double runner_s = 0.0;
  Outcome out;

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    obs::Span root(tracer, "run");
    runtime::ParallelRunner runner(opt.threads);
    runner_s = since(t0);
    runner.run_trials(n, [&](std::size_t i) {
      // Trial i's randomness is a pure function of (seed, i): results do
      // not depend on scheduling or worker count.
      obs::Span trial(tracer, "core.trial");
      std::optional<core::PicoCubeNode> node;
      {
        obs::Span s(tracer, "core.node_ctor");
        Rng rng = Rng::stream(opt.seed, i);
        node.emplace(sampled_node(rng));
      }
      {
        obs::Span s(tracer, "core.node_run");
        node->run(Duration{kTrialHorizonS});
      }
      res[i].avg_power_w = node->report().average_power.value();
      res[i].wake_cycles = node->wake_cycles();
      res[i].events = node->simulator().events_dispatched();
      if (reg) {
        const std::lock_guard<std::mutex> lock(reg_m);
        node->publish_metrics(*reg);
      }
    });
    if (reg) runner.publish_metrics(*reg);
  }
  out.timing.wall_s = since(t0);
  out.timing.cpu_s = process_cpu_s() - cpu0;
  std::vector<double> ctor_s;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < kSetupRepeats; ++k) {
      const auto tc = Clock::now();
      Rng rng = Rng::stream(opt.seed, i);
      const core::PicoCubeNode node(sampled_node(rng));
      ctor_s.push_back(since(tc));
    }
  }
  const std::size_t mid = ctor_s.size() / 2;
  std::nth_element(ctor_s.begin(), ctor_s.begin() + static_cast<std::ptrdiff_t>(mid), ctor_s.end());
  out.timing.setup_s = runner_s + static_cast<double>(n) * ctor_s[mid];
  out.timing.node_sim_s = static_cast<double>(n) * kTrialHorizonS;

  std::uint64_t wakes = 0;
  std::uint64_t events = 0;
  for (const TrialResult& r : res) {
    out.trial_power_w.push_back(r.avg_power_w);
    wakes += r.wake_cycles;
    events += r.events;
  }
  out.exact = {{"core.wake_cycles", wakes}, {"sim.events_dispatched", events}};

  if (reg) {
    const obs::MetricsSnapshot snap = reg->snapshot();
    for (const auto& [name, key] :
         std::vector<std::pair<const char*, const char*>>{
             {"circuits.steps", "transient.steps"},
             {"circuits.newton_iterations", "transient.newton_iterations"},
             {"circuits.lu_factorizations", "transient.lu_factorizations"},
             {"circuits.lu_cache_hits", "transient.lu_cache.hits"},
             {"circuits.lu_cache_misses", "transient.lu_cache.misses"},
             {"circuits.lte_rejections", "transient.dt_rejections"},
             {"runtime.steals", "runner.steals"},
             {"runtime.idle_s", "runner.idle_seconds"}}) {
      out.layer.emplace_back(name, snap.value(key));
    }
  }
  if (tracer != nullptr) {
    // Dispatch-cost probe: trial 0 without the harvest path runs the same
    // firmware events with no MNA work, so its wall time per event bounds
    // the simulator's own per-event cost from above.
    Rng rng = Rng::stream(opt.seed, 0);
    core::NodeConfig cfg = sampled_node(rng);
    cfg.attach_harvester = false;
    obs::Span s(tracer, "sim.dispatch_probe");
    const auto tp = Clock::now();
    core::PicoCubeNode probe(cfg);
    probe.run(Duration{kTrialHorizonS});
    out.layer.emplace_back("sim.probe_wall_s", since(tp));
    out.layer.emplace_back("sim.probe_events",
                           static_cast<double>(probe.simulator().events_dispatched()));
  }
  return out;
}

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double host_reference_s() {
  constexpr int kHostReferenceRepeats = 5;
  constexpr std::uint32_t kSteps = 8'000'000;
  // Cache-resident: the kernel follows the slowdowns that every workload
  // shares (cores running at part speed) more closely than a kernel over a
  // 16 MiB table did, whose memory traffic added noise the node sweep does
  // not see.
  std::vector<std::uint32_t> table(std::size_t{1} << 12);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  std::vector<double> times;
  double sink = 0.0;
  for (int k = 0; k < kHostReferenceRepeats; ++k) {
    std::uint32_t x = 2463534242u;
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      const std::uint32_t v = table[x & mask];
      sink += std::sqrt(static_cast<double>(v & 0xffffu));
      table[(x >> 9) & mask] = v + i;
    }
    times.push_back(since(t0));
  }
  if (!(sink >= 0.0)) throw std::runtime_error("host reference: bad sum");  // keeps the loop
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

Outcome run_workload(const std::string& workload, const RunOptions& opt) {
  if (opt.threads == 0) throw std::invalid_argument("threads must be explicit (>= 1)");
  if (workload == "highway_dense") return run_fleet(highway_dense(opt.seed), false, opt);
  if (workload == "million_sparse") return run_fleet(million_sparse(opt.seed), false, opt);
  if (workload == "arq_soak_resume") return run_fleet(arq_soak_resume(opt.seed), true, opt);
  if (workload == "node_sweep_circuit") return run_sweep(opt);
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace perfbench
