// perfbench — one process per measured pass of a benchmark workload.
//
//   perfbench info
//   perfbench timed <workload> --seed N --threads T
//   perfbench check <workload> --seed N --threads T --scale-threads S
//   perfbench trace <workload> --seed N --threads T --scale-threads S --run-id ID
//
// Each mode prints one compact JSON object on stdout; perfbench/run.py
// turns those into the benchmark's metrics and verdicts.
//
//   timed  one untraced pass: the end-to-end timings plus the pass's
//          deterministic results.
//   check  the correctness twins, run outside any timed region: the same
//          seed regrouped onto another shard count at S threads (fleet),
//          the uninterrupted run a resumed one must equal
//          (arq_soak_resume), the sweep at S threads (node_sweep_circuit).
//   trace  a warm-up pass, three alternating untraced/traced pairs (the
//          obs::Tracer spans of the last traced pass are printed), three
//          passes at S threads (thread scaling, runner counters) and, on
//          arq_soak_resume, three alternating pairs of the uninterrupted
//          run with hooks attached and detached (the obs overhead pairs).
//
// T is the thread count of every measured pass, S the core count the
// thread-scaling and regrouping twins use.
#include <array>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/manifest.hpp"
#include "obs/tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;
using pico::JsonWriter;

void write_outcome(JsonWriter& w, const Outcome& o) {
  w.begin_object();
  w.key("timing").begin_object();
  w.kv("wall_s", o.timing.wall_s);
  w.kv("setup_s", o.timing.setup_s);
  w.kv("cpu_s", o.timing.cpu_s);
  w.kv("node_sim_s", o.timing.node_sim_s);
  w.end_object();
  w.key("exact").begin_object();
  for (const auto& [k, v] : o.exact) w.kv(k, v);
  w.end_object();
  w.key("trial_power_w").begin_array();
  for (double p : o.trial_power_w) w.value(p);
  w.end_array();
  w.key("layer").begin_object();
  for (const auto& [k, v] : o.layer) w.kv(k, v);
  w.end_object();
  w.end_object();
}

// One arm of an A/B pair inside a trace invocation.
struct Side {
  explicit Side(std::function<Outcome()> f) : run(std::move(f)) {}
  std::function<Outcome()> run;
  Outcome last;
  std::vector<perfbench::Timing> timings;
};

// Passes per arm of a trace invocation.
constexpr int kRepeats = 3;

void repeat(Side& s) {
  for (int i = 0; i < kRepeats; ++i) {
    s.last = s.run();
    s.timings.push_back(s.last.timing);
  }
}

// Run both arms kRepeats times, alternating which goes first, so drift and
// allocator warm-up favour neither; each arm keeps its last outcome.
void alternate(Side& a, Side& b) {
  for (int i = 0; i < kRepeats; ++i) {
    for (Side* s : i % 2 == 0 ? std::array<Side*, 2>{&a, &b} : std::array<Side*, 2>{&b, &a}) {
      s->last = s->run();
      s->timings.push_back(s->last.timing);
    }
  }
}

int run(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "info") == 0) {
    // Configure-time provenance; git_describe goes stale on an incremental
    // rebuild, so run.py reads the commit at run time instead.
    const pico::obs::BuildInfo b = pico::obs::BuildInfo::current();
    JsonWriter w(std::cout, 0);
    w.begin_object();
    w.kv("compiler", b.compiler);
    w.kv("build_type", b.build_type);
    w.kv("cxx_flags", b.cxx_flags);
    w.kv("observability", b.observability);
    w.end_object();
    std::cout << "\n";
    return 0;
  }
  if (argc < 3) {
    std::cerr << "usage: perfbench info | perfbench <timed|check|trace> <workload>"
                 " --seed N --threads T [--scale-threads S] [--run-id ID]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const std::string workload = argv[2];
  RunOptions opt;
  std::uint64_t run_id = 0;
  unsigned scale_threads = 0;
  bool have_seed = false;
  bool have_threads = false;
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--threads") {
      opt.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      have_threads = true;
    } else if (flag == "--scale-threads") {
      scale_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--run-id") {
      run_id = std::strtoull(v, nullptr, 10);
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!have_seed || !have_threads || opt.threads == 0) {
    std::cerr << "perfbench: --seed and an explicit --threads >= 1 are required\n";
    return 2;
  }
  if (mode != "timed" && scale_threads == 0) {
    std::cerr << "perfbench: " << mode << " needs an explicit --scale-threads >= 1\n";
    return 2;
  }
  RunOptions scaled = opt;
  scaled.threads = scale_threads;

  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("mode", mode);
  w.kv("workload", workload);
  w.kv("seed", opt.seed);
  w.kv("threads", opt.threads);
  if (scale_threads != 0) w.kv("scale_threads", scale_threads);
  if (mode == "timed") {
    const Outcome o = perfbench::run_workload(workload, opt);
    w.kv("peak_rss_mb", perfbench::peak_rss_mb());
    w.kv("host_ref_s", perfbench::host_reference_s());
    w.key("pass");
    write_outcome(w, o);
  } else if (mode == "check") {
    w.key("variants").begin_object();
    if (workload == "node_sweep_circuit") {
      w.key("scaled");
      write_outcome(w, perfbench::run_workload(workload, scaled));
    } else {
      RunOptions twin = scaled;
      twin.shards = 61;  // prime: no alignment with the domain count
      twin.resume = false;
      w.key("regrouped");
      write_outcome(w, perfbench::run_workload(workload, twin));
      if (workload == "arq_soak_resume") {
        RunOptions whole = opt;
        whole.resume = false;
        w.key("uninterrupted");
        write_outcome(w, perfbench::run_workload(workload, whole));
      }
    }
    w.end_object();
  } else if (mode == "trace") {
    w.kv("run_id", run_id);
    // The first pass of a process runs slow (cold caches, idle cores
    // clocking up, the allocator not yet holding freed pages); it warms up
    // and is dropped.
    (void)perfbench::run_workload(workload, opt);
    std::unique_ptr<pico::obs::Tracer> tracer;
    Side untraced{[&] { return perfbench::run_workload(workload, opt); }};
    Side traced{[&] {
      tracer = std::make_unique<pico::obs::Tracer>();  // spans of the last traced pass
      RunOptions with_spans = opt;
      with_spans.tracer = tracer.get();
      return perfbench::run_workload(workload, with_spans);
    }};
    alternate(untraced, traced);
    std::vector<std::pair<const char*, Side*>> sides = {{"untraced", &untraced},
                                                        {"traced", &traced}};
    // A pool's first pass can run no faster than one thread while the
    // host brings its cores up, so the scaled twin is repeated too.
    scaled.counters = true;
    Side scaled_side{[&] { return perfbench::run_workload(workload, scaled); }};
    repeat(scaled_side);
    sides.emplace_back("scaled", &scaled_side);
    RunOptions whole = opt;
    whole.resume = false;
    RunOptions detached = whole;
    detached.hooks = false;
    Side hooks_on{[&] { return perfbench::run_workload(workload, whole); }};
    Side hooks_off{[&] { return perfbench::run_workload(workload, detached); }};
    if (workload == "arq_soak_resume") {
      alternate(hooks_on, hooks_off);
      sides.emplace_back("uninterrupted", &hooks_on);
      sides.emplace_back("hooks_detached", &hooks_off);
    }
    w.key("pairs").begin_object();
    for (const auto& [name, side] : sides) {
      w.key(name).begin_object();
      w.key("wall_s").begin_array();
      for (const perfbench::Timing& t : side->timings) w.value(t.wall_s);
      w.end_array();
      w.key("cpu_s").begin_array();
      for (const perfbench::Timing& t : side->timings) w.value(t.cpu_s);
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.key("passes").begin_object();
    for (const auto& [name, side] : sides) {
      w.key(name);
      write_outcome(w, side->last);
    }
    w.end_object();
    // Every span of the run carries its id; tid and depth with the
    // timestamps give the nesting.
    w.kv("host_ref_s", perfbench::host_reference_s());
    w.key("spans").begin_array();
    for (const pico::obs::Tracer::Event& ev : tracer->events()) {
      w.begin_object();
      w.kv("run", run_id);
      w.kv("name", ev.name);
      w.kv("tid", ev.tid);
      w.kv("depth", ev.depth);
      w.kv("start_s", 1e-6 * ev.ts_us);
      w.kv("end_s", 1e-6 * (ev.ts_us + ev.dur_us));
      w.end_object();
    }
    w.end_array();
  } else {
    std::cerr << "perfbench: unknown mode " << mode << "\n";
    return 2;
  }
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
