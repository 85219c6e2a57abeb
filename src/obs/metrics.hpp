// metrics.hpp — named counters, gauges, and fixed-bucket histograms.
//
// Thread model: one mutex guards every metric cell, so registration, the
// mutating calls and `snapshot()` are all safe from any thread. Producers
// publish totals once at the end of a run (or a Monte Carlo trial), and the
// one per-step producer (Transient's dt histogram) runs on its owner's
// thread, so the lock is effectively uncontended. Aggregation is in place:
//
//   counter    — running sum of every add()
//   gauge      — last write wins (GaugeAgg::kLast), or max of every write
//                for monotone gauges (GaugeAgg::kMax, e.g. queue high-water
//                marks)
//   histogram  — bucket counts plus sum/min/max/count
//
// Registering the same name twice returns the same id, so many instances
// (e.g. one Transient per Monte Carlo trial) can publish into one registry
// and their counters accumulate.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"

namespace pico {
class JsonWriter;
}

namespace pico::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffff;

enum class MetricKind { kCounter, kGauge, kHistogram };
enum class GaugeAgg { kLast, kMax };

struct HistogramSnapshot {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid only when count > 0
  double max = 0.0;
  [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  // Interpolated quantile from the bucket histogram: walk the cumulative
  // counts to the bucket holding rank p*count, interpolate linearly inside
  // it, clamp to the observed [min, max]. Underflow mass sits at min,
  // overflow mass at max. Depends only on the bucket counts, so it is
  // invariant to observation order. p in [0, 1]; 0 with no samples.
  [[nodiscard]] double quantile(double p) const;
};

// Short alias used throughout tooling docs (p50/p99 per series).
using HistSnapshot = HistogramSnapshot;

struct ScalarSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

struct MetricsSnapshot {
  std::vector<ScalarSnapshot> scalars;        // registration order
  std::vector<HistogramSnapshot> histograms;  // registration order

  [[nodiscard]] bool has(const std::string& name) const;
  // Scalar value by name; `fallback` when absent.
  [[nodiscard]] double value(const std::string& name, double fallback = 0.0) const;
  [[nodiscard]] const HistogramSnapshot* histogram(const std::string& name) const;
  // Emit as one JSON object: scalars as numbers, histograms as objects.
  void write_json(JsonWriter& w) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (same name + kind => same id) ---------------------------
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name, GaugeAgg agg = GaugeAgg::kLast);
  MetricId histogram(const std::string& name, double lo, double hi, std::uint32_t buckets);

  // --- Updates (any thread) ------------------------------------------------
  void add(MetricId id, double delta = 1.0);     // counter
  void set(MetricId id, double value);           // gauge
  void observe(MetricId id, double value);       // histogram

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    GaugeAgg agg = GaugeAgg::kLast;
    bool written = false;    // gauge set at least once (kMax seeds on it)
    double value = 0.0;      // counter sum / gauge value
    std::string name;
    HistogramSnapshot hist;  // histograms: name, range, buckets and moments
  };

  MetricId register_metric(Metric metric);

  mutable std::mutex m_;         // guards everything below
  std::vector<Metric> metrics_;  // indexed by MetricId, registration order
  std::unordered_map<std::string, MetricId> by_name_;
};

}  // namespace pico::obs
