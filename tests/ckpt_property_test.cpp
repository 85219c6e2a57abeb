// ckpt_property_test.cpp — the tentpole invariant, stated as a property:
//
//   A fleet run checkpointed at ANY epoch barrier and resumed in a fresh
//   session is bit-identical to the uninterrupted run — metrics
//   fingerprint, flight fingerprint, series rows — for every shard and
//   thread count.
//
// Trials are drawn from the scenario generator (seeded, reproducible) so
// the property is exercised over fleets with varying population, spread,
// drive cycle, jam bursts and harvest droughts, not one hand-picked spec.
// On failure the harness shrinks to the earliest failing cut epoch and
// prints a one-line repro (corpus seed, index, cut, shards, threads),
// which `bench_soak_corpus --index N --checkpoint-at T` replays directly.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "fleet/engine.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "scenario/generator.hpp"

using namespace pico;

namespace {

// Small-but-structured corpus: a few hundred nodes over a sim-minute
// keeps one trial in the tens of milliseconds while still crossing fault
// windows, decimations and (for the smallest rings) flight wrap-around.
scenario::GeneratorParams test_params() {
  scenario::GeneratorParams p;
  p.seed = 77;
  p.sim_time_s = 24.0;
  p.min_nodes = 160;
  p.max_nodes = 360;
  p.nodes_per_domain = 40;  // >= 4 domains, so shard sweeps are non-trivial
  return p;
}

struct RunResult {
  std::uint64_t metrics_fp = 0;
  std::uint64_t flight_fp = 0;
  std::uint64_t delivered = 0;
  std::uint64_t wake_cycles = 0;
  double energy_out_j = 0.0;
  std::vector<double> times;
  std::vector<std::vector<double>> cols;
};

struct Obs {
  obs::TimeSeriesRecorder series{0.5, 64};
  obs::FlightRecorder flight{32};
  fleet::FleetObsHooks hooks() {
    fleet::FleetObsHooks h;
    h.series = &series;
    h.flight = &flight;
    h.flight_tx_sample_shift = 3;
    return h;
  }
};

RunResult collect(Obs& o, const fleet::FleetMetrics& m) {
  RunResult r;
  r.metrics_fp = m.fingerprint();
  r.flight_fp = o.flight.fingerprint();
  r.delivered = m.delivered;
  r.wake_cycles = m.wake_cycles;
  r.energy_out_j = m.energy_out_j;
  r.times = o.series.times();
  for (std::uint32_t c = 0; c < o.series.series_count(); ++c)
    r.cols.push_back(o.series.column(c));
  return r;
}

// Bit-pattern equality: series columns carry NaN for unset samples, and
// operator== would call two identical runs different.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

bool equal(const RunResult& a, const RunResult& b) {
  if (a.cols.size() != b.cols.size()) return false;
  for (std::size_t c = 0; c < a.cols.size(); ++c) {
    if (!same_bits(a.cols[c], b.cols[c])) return false;
  }
  return a.metrics_fp == b.metrics_fp && a.flight_fp == b.flight_fp &&
         a.delivered == b.delivered && a.wake_cycles == b.wake_cycles &&
         a.energy_out_j == b.energy_out_j && same_bits(a.times, b.times);
}

RunResult run_uninterrupted(const fleet::FleetSpec& spec) {
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  return collect(o, s.finish());
}

// Run to `cut_epochs` barriers, save, restore the blob into a fresh
// session built from `resume_spec` (normally == spec; the portability
// test regroups shards/threads), finish, and collect from the RESUMED
// side's observers — they must have inherited rows and ring contents
// through the blob.
RunResult run_resumed(const fleet::FleetSpec& spec, std::uint64_t cut_epochs,
                      const fleet::FleetSpec& resume_spec) {
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(spec, o.hooks());
    s.run_until(static_cast<double>(cut_epochs) * s.epoch_step_s());
    blob = s.save();
  }
  Obs o;
  fleet::FleetSession s(resume_spec, o.hooks());
  s.restore(blob);
  return collect(o, s.finish());
}

std::uint64_t epochs_in(const fleet::FleetSpec& spec) {
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  return static_cast<std::uint64_t>(spec.sim_time_s / s.epoch_step_s());
}

std::string repro_line(const scenario::GeneratorParams& p, std::uint64_t index,
                       std::uint64_t cut, const fleet::FleetSpec& spec) {
  return "repro: corpus_seed=" + std::to_string(p.seed) +
         " index=" + std::to_string(index) + " cut_epoch=" + std::to_string(cut) +
         " shards=" + std::to_string(spec.shards) +
         " threads=" + std::to_string(spec.threads);
}

}  // namespace

// The core property over generator-drawn trials: checkpoint at a random
// epoch, resume, compare everything. A failing trial shrinks to the
// earliest cut epoch that still fails before reporting.
TEST(FleetCheckpointTest, RandomEpochResumeEqualsUninterrupted) {
  const scenario::GeneratorParams p = test_params();
  Rng pick(20080809);
  for (std::uint64_t index = 0; index < 4; ++index) {
    const scenario::GeneratedScenario gen = scenario::generate(p, index);
    const fleet::FleetSpec& spec = gen.spec;
    const RunResult base = run_uninterrupted(spec);
    const std::uint64_t n_epochs = epochs_in(spec);
    ASSERT_GE(n_epochs, 3u) << gen.name;
    const std::uint64_t cut = 1 + pick.below(n_epochs - 1);
    if (equal(base, run_resumed(spec, cut, spec))) continue;
    // Shrink: earliest failing cut is the smallest repro.
    std::uint64_t minimal = cut;
    for (std::uint64_t c = 1; c < cut; ++c) {
      if (!equal(base, run_resumed(spec, c, spec))) {
        minimal = c;
        break;
      }
    }
    ADD_FAILURE() << "resume diverged from uninterrupted run (" << gen.name
                  << ")\n  " << repro_line(p, index, minimal, spec);
  }
}

// Checkpoints are portable across shard/thread regroupings: a blob saved
// under one execution shape restores under any other and still reproduces
// the uninterrupted fingerprints (shards/threads group work; they are
// deliberately not spec-guard fields).
TEST(FleetCheckpointTest, PortableAcrossShardAndThreadSweep) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 1);
  fleet::FleetSpec save_spec = gen.spec;
  save_spec.shards = 1;
  save_spec.threads = 1;
  const RunResult base = run_uninterrupted(save_spec);
  const std::uint64_t cut = epochs_in(save_spec) / 2;
  ASSERT_GE(cut, 1u);
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    for (unsigned threads : {1u, 8u}) {
      fleet::FleetSpec resume_spec = gen.spec;
      resume_spec.shards = shards;
      resume_spec.threads = threads;
      const RunResult r = run_resumed(save_spec, cut, resume_spec);
      EXPECT_TRUE(equal(base, r))
          << repro_line(p, 1, cut, resume_spec) << " (saved under 1x1)";
    }
  }
}

// A spec mismatch is diagnosed by field name; a fault-plan mismatch by the
// plan check. Both must throw before touching any session state.
TEST(FleetCheckpointTest, RejectsSpecAndPlanMismatch) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 3);
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(gen.spec, o.hooks());
    s.run_until(s.epoch_step_s());
    blob = s.save();
  }
  {
    fleet::FleetSpec other = gen.spec;
    other.nodes += 1;
    Obs o;
    fleet::FleetSession s(other, o.hooks());
    try {
      s.restore(blob);
      FAIL() << "node-count mismatch must be rejected";
    } catch (const DesignError& e) {
      EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos) << e.what();
    }
  }
  {
    fleet::FleetSpec other = gen.spec;
    other.faults.channel_loss(1.0, 2.0, 0.5);
    Obs o;
    fleet::FleetSession s(other, o.hooks());
    try {
      s.restore(blob);
      FAIL() << "fault-plan mismatch must be rejected";
    } catch (const DesignError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan"), std::string::npos)
          << e.what();
    }
  }
}

namespace {

// Mid-run depletion regression spec: tight battery budgets (about half
// the whole-run spend) on an ARQ uplink under a jam window, so the blob
// crossing the cut carries dead nodes, per-node cycle bills and ARQ
// counters all at once.
fleet::FleetSpec retirement_spec() {
  fleet::FleetSpec spec;
  spec.nodes = 240;
  spec.domains = 4;
  spec.sim_time_s = 240.0;
  spec.epoch_s = 16.0;
  spec.randomize_phase = true;
  spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  spec.node.link.arq.max_retries = 2;
  // Jam from the first wakes: the tight budget kills everyone within the
  // first ~40 s, so retries must burn before that.
  spec.faults.channel_loss(2.0, 60.0, 0.5);
  spec.battery_budget_override_j = 4.0e-4;
  return spec;
}

// Container framing (src/ckpt/codec.hpp): a 16-byte header (magic,
// format version, payload length), sections with a 16-byte header (tag,
// version, payload length), and a trailing 8-byte FNV-1a digest.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kSectionHeaderBytes = 16;
constexpr std::size_t kDigestBytes = 8;

std::uint64_t get_le64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{b[at + i]} << (8 * i);
  return v;
}

void put_le64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Seal header + payload bytes into a blob the container accepts: patch
// the payload length and append the digest, so a mutant reaches the
// section decoders instead of the container's own integrity checks.
std::vector<std::uint8_t> seal(std::vector<std::uint8_t> body) {
  put_le64(body, 8, body.size() - kHeaderBytes);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : body) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  body.resize(body.size() + kDigestBytes);
  put_le64(body, body.size() - kDigestBytes, h);
  return body;
}

std::vector<std::uint8_t> body_of(const std::vector<std::uint8_t>& blob) {
  return {blob.begin(), blob.end() - static_cast<std::ptrdiff_t>(kDigestBytes)};
}

// Offsets of every section start, then the end of the payload.
std::vector<std::size_t> section_bounds(const std::vector<std::uint8_t>& blob) {
  std::vector<std::size_t> at;
  std::size_t pos = kHeaderBytes;
  while (pos < blob.size() - kDigestBytes) {
    at.push_back(pos);
    pos += kSectionHeaderBytes + get_le64(blob, pos + 8);
  }
  at.push_back(pos);
  return at;
}

// Run to the first epoch barrier at or after t_s and save there; the
// barrier reached is reported through saved_t_s.
std::vector<std::uint8_t> save_at(const fleet::FleetSpec& spec, double t_s,
                                  double* saved_t_s = nullptr) {
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  s.run_until(t_s);
  if (saved_t_s != nullptr) *saved_t_s = s.now_s();
  return s.save();
}

}  // namespace

// Regression for the retirement path: a session saved after nodes have
// already died mid-run and resumed in a fresh session must finish
// fingerprint-equal to the uninterrupted run — dead nodes stay dead
// through the blob (alive flags and death times travel), and the
// finalize-derived counters (energy, node_seconds_alive) are billed
// exactly once, by whichever session actually finishes.
TEST(FleetCheckpointTest, MidRunDeathResumesFingerprintEqual) {
  const fleet::FleetSpec spec = retirement_spec();
  Obs base_o;
  fleet::FleetSession base_s(spec, base_o.hooks());
  const fleet::FleetMetrics base = base_s.finish();
  ASSERT_EQ(base.nodes_dead, spec.nodes) << "spec must retire every node mid-run";
  ASSERT_GT(base.arq_retries, 0u);
  const RunResult want = collect(base_o, base);

  const std::uint64_t n_epochs = epochs_in(spec);
  for (const std::uint64_t cut : {n_epochs / 2, n_epochs - 1}) {
    std::vector<std::uint8_t> blob;
    {
      Obs o;
      fleet::FleetSession s(spec, o.hooks());
      s.run_until(static_cast<double>(cut) * s.epoch_step_s());
      blob = s.save();
    }
    Obs o;
    fleet::FleetSession s(spec, o.hooks());
    s.restore(blob);
    const fleet::FleetMetrics m = s.finish();
    EXPECT_TRUE(equal(want, collect(o, m))) << "cut_epoch=" << cut;
    // No double-counting across the save/restore seam: every
    // finalize-derived counter matches the uninterrupted run bit for bit.
    EXPECT_EQ(m.nodes_dead, base.nodes_dead) << "cut_epoch=" << cut;
    EXPECT_EQ(m.arq_retries, base.arq_retries) << "cut_epoch=" << cut;
    EXPECT_EQ(m.arq_gaveup, base.arq_gaveup) << "cut_epoch=" << cut;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.node_seconds_alive),
              std::bit_cast<std::uint64_t>(base.node_seconds_alive))
        << "cut_epoch=" << cut;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.energy_out_j),
              std::bit_cast<std::uint64_t>(base.energy_out_j))
        << "cut_epoch=" << cut;
    // Everyone died before the horizon, so the alive-time integral must
    // sit strictly inside (0, nodes x sim_time).
    EXPECT_GT(m.node_seconds_alive, 0.0);
    EXPECT_LT(m.node_seconds_alive,
              static_cast<double>(spec.nodes) * spec.sim_time_s);
  }
}

// restore() then save() reproduces the blob byte for byte — the session
// state the blob describes is exactly the state a restore reinstates.
TEST(FleetCheckpointTest, RestoredSessionResavesByteIdentical) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 1);
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(gen.spec, o.hooks());
    s.run_until(2.0 * s.epoch_step_s());
    blob = s.save();
  }
  Obs o;
  fleet::FleetSession s(gen.spec, o.hooks());
  s.restore(blob);
  EXPECT_EQ(s.save(), blob);
}

// A blob that passes FSPC and FENG but is rejected in FDOM has already
// overwritten domain state. Running on would mix two runs, so the session
// must refuse to run or save until a restore succeeds — and then resume
// exactly. The FENG cursors wait for every section, so now_s() does not
// move on a rejected restore.
TEST(FleetCheckpointTest, RejectedRestoreLeavesSessionUnusable) {
  const fleet::FleetSpec spec = retirement_spec();
  Obs base_o;
  fleet::FleetSession base_s(spec, base_o.hooks());
  const RunResult want = collect(base_o, base_s.finish());

  double saved_t = 0.0;
  const std::vector<std::uint8_t> blob = save_at(spec, 120.0, &saved_t);
  // Bump FDOM's domain count (the u64 after its section header) and
  // re-seal so only the count check fires.
  const std::vector<std::uint8_t> fdom = {'F', 'D', 'O', 'M'};
  const auto at = std::search(blob.begin(), blob.end(), fdom.begin(), fdom.end());
  ASSERT_NE(at, blob.end());
  std::vector<std::uint8_t> body = body_of(blob);
  ++body[static_cast<std::size_t>(at - blob.begin()) + kSectionHeaderBytes];
  const std::vector<std::uint8_t> bad = seal(std::move(body));

  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  s.run_until(48.0);
  const double before = s.now_s();
  ASSERT_GT(before, 0.0);
  try {
    s.restore(bad);
    FAIL() << "a domain-count mismatch must be rejected";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("domains"), std::string::npos) << e.what();
  }
  // FENG had already validated, but its cursors wait for every section.
  EXPECT_EQ(s.now_s(), before);
  for (const auto& use : {+[](fleet::FleetSession& f) { f.run_until(240.0); },
                          +[](fleet::FleetSession& f) { (void)f.finish(); },
                          +[](fleet::FleetSession& f) { (void)f.save(); }}) {
    try {
      use(s);
      FAIL() << "a session holding a failed restore must not run or save";
    } catch (const DesignError& e) {
      EXPECT_NE(std::string(e.what()).find("failed restore"), std::string::npos)
          << e.what();
    }
  }
  s.restore(blob);
  EXPECT_EQ(s.now_s(), saved_t);
  EXPECT_TRUE(equal(want, collect(o, s.finish())));
}

// Seeded mutation of a real fleet blob (series and flight hooks, dead
// nodes, ARQ counters): truncation at every section boundary, splices
// with a blob of another seed, and single-byte flips. Truncations come
// raw and re-sealed; splices and flips are re-sealed so they get past the
// digest to the section decoders. Each mutant must either be rejected
// with CheckpointError or restore into a session that runs to the horizon;
// any other exception, or a crash under asan, is a decoder bug.
TEST(FleetCheckpointTest, ContainerSurvivesSeededMutation) {
  const fleet::FleetSpec spec = retirement_spec();
  fleet::FleetSpec other_spec = spec;
  other_spec.seed = spec.seed + 1;
  const std::vector<std::uint8_t> blob = save_at(spec, 48.0);
  const std::vector<std::uint8_t> other = save_at(other_spec, 48.0);
  const std::vector<std::size_t> bounds = section_bounds(blob);
  const std::vector<std::size_t> other_bounds = section_bounds(other);
  ASSERT_EQ(bounds.size(), other_bounds.size());
  ASSERT_GE(bounds.size(), 6u) << "FSPC FENG FDOM SERS FLIT, then the end";

  struct Mutant {
    std::string label;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Mutant> mutants;
  const auto prefix = [](const std::vector<std::uint8_t>& b, std::size_t n) {
    return std::vector<std::uint8_t>(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
  };
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    // Cut before a section, and between its header and its payload: raw
    // (the container must notice) and re-sealed (the decoders must).
    for (const std::size_t cut : {bounds[k], bounds[k] + kSectionHeaderBytes}) {
      mutants.push_back({"truncate@" + std::to_string(cut), prefix(blob, cut)});
      mutants.push_back({"truncate+seal@" + std::to_string(cut), seal(prefix(blob, cut))});
    }
    // Sections [0, k) of this blob, the rest from the other seed's.
    std::vector<std::uint8_t> spliced = prefix(blob, bounds[k]);
    spliced.insert(spliced.end(),
                   other.begin() + static_cast<std::ptrdiff_t>(other_bounds[k]),
                   other.end() - static_cast<std::ptrdiff_t>(kDigestBytes));
    mutants.push_back({"splice@section" + std::to_string(k), seal(std::move(spliced))});
  }
  Rng rng(0xc4ec);
  const std::size_t body_bytes = blob.size() - kDigestBytes;
  for (int i = 0; i < 60; ++i) {
    const std::size_t from = rng.below(body_bytes + 1);
    const std::size_t to = rng.below(other.size() - kDigestBytes + 1);
    std::vector<std::uint8_t> spliced = prefix(blob, from);
    spliced.insert(spliced.end(), other.begin() + static_cast<std::ptrdiff_t>(to),
                   other.end() - static_cast<std::ptrdiff_t>(kDigestBytes));
    if (spliced.size() < kHeaderBytes) continue;
    mutants.push_back({"splice@" + std::to_string(from) + "+" + std::to_string(to),
                       seal(std::move(spliced))});
  }
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> body = body_of(blob);
    // Half the flips land in a section header or the first bytes of a
    // payload, where lengths, versions and element counts live.
    const std::size_t at =
        rng.chance(0.5) ? bounds[rng.below(bounds.size() - 1)] + rng.below(24)
                        : rng.below(body_bytes);
    body[at] = static_cast<std::uint8_t>(body[at] ^ (1u + rng.below(255)));
    mutants.push_back({"flip@" + std::to_string(at), seal(std::move(body))});
  }

  std::size_t rejected = 0;
  std::size_t ran = 0;
  for (const Mutant& m : mutants) {
    try {
      Obs o;
      fleet::FleetSession s(spec, o.hooks());
      try {
        s.restore(m.bytes);
      } catch (const ckpt::CheckpointError&) {
        ++rejected;
        continue;
      }
      (void)s.finish();
      ++ran;
    } catch (const std::exception& e) {
      ADD_FAILURE() << m.label << " escaped: " << e.what();
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ran, 0u);
}

// The FDOM/FSPC/FENG/SERS/FLIT bytes of one fixed save, pinned: size and
// the blob's own trailing FNV-1a digest. The literals were recorded
// before the domain codec was rewritten around one field list, so they
// prove that rewrite byte-identical; any later change to the wire layout
// must bump a section version and re-pin here.
TEST(FleetCheckpointTest, BlobBytesPinned) {
  const fleet::FleetSpec spec = retirement_spec();
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  s.run_until(24.0);  // inside the jam, after the first retirements
  std::size_t brownouts = 0;
  for (const auto& m : o.flight.merged()) {
    if (m.ev.kind == obs::FlightEventKind::kBrownout) ++brownouts;
  }
  ASSERT_GT(brownouts, 0u) << "the save must carry nodes that died mid-run";
  const std::vector<std::uint8_t> blob = s.save();
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    digest |= static_cast<std::uint64_t>(blob[blob.size() - 8 + i]) << (8 * i);
  }
  EXPECT_EQ(blob.size(), 30389u);
  EXPECT_EQ(digest, 0x1376d015afc7ee26ULL);
}
