#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pico::obs {

MetricId MetricsRegistry::register_metric(Metric metric) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = by_name_.find(metric.name);
  if (it != by_name_.end()) {
    PICO_REQUIRE(metrics_[it->second].kind == metric.kind,
                 "metric re-registered with a different kind: " + metric.name);
    return it->second;
  }
  const auto id = static_cast<MetricId>(metrics_.size());
  by_name_.emplace(metric.name, id);
  metrics_.push_back(std::move(metric));
  return id;
}

MetricId MetricsRegistry::counter(const std::string& name) {
  Metric m;
  m.name = name;
  m.kind = MetricKind::kCounter;
  return register_metric(std::move(m));
}

MetricId MetricsRegistry::gauge(const std::string& name, GaugeAgg agg) {
  Metric m;
  m.name = name;
  m.kind = MetricKind::kGauge;
  m.agg = agg;
  return register_metric(std::move(m));
}

MetricId MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                    std::uint32_t buckets) {
  PICO_REQUIRE(hi > lo, "histogram needs hi > lo");
  PICO_REQUIRE(buckets >= 1, "histogram needs at least one bucket");
  Metric m;
  m.name = name;
  m.kind = MetricKind::kHistogram;
  m.hist.name = name;
  m.hist.lo = lo;
  m.hist.hi = hi;
  m.hist.buckets.assign(buckets, 0);
  return register_metric(std::move(m));
}

void MetricsRegistry::add(MetricId id, double delta) {
  std::lock_guard<std::mutex> lk(m_);
  Metric& m = metrics_[id];
  PICO_ASSERT(m.kind == MetricKind::kCounter);
  m.value += delta;
}

void MetricsRegistry::set(MetricId id, double value) {
  std::lock_guard<std::mutex> lk(m_);
  Metric& m = metrics_[id];
  PICO_ASSERT(m.kind == MetricKind::kGauge);
  m.value = m.agg == GaugeAgg::kMax && m.written ? std::max(m.value, value) : value;
  m.written = true;
}

void MetricsRegistry::observe(MetricId id, double value) {
  std::lock_guard<std::mutex> lk(m_);
  Metric& m = metrics_[id];
  PICO_ASSERT(m.kind == MetricKind::kHistogram);
  HistogramSnapshot& h = m.hist;
  if (value < h.lo) {
    ++h.underflow;
  } else if (value >= h.hi) {
    ++h.overflow;
  } else {
    const std::size_t n = h.buckets.size();
    const double frac = (value - h.lo) / (h.hi - h.lo);
    auto b = static_cast<std::size_t>(frac * static_cast<double>(n));
    if (b >= n) b = n - 1;  // frac == 1 - eps rounding
    ++h.buckets[b];
  }
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(m_);
  for (const Metric& m : metrics_) {
    if (m.kind == MetricKind::kHistogram) {
      out.histograms.push_back(m.hist);
    } else {
      out.scalars.push_back(ScalarSnapshot{m.name, m.kind, m.value});
    }
  }
  return out;
}

double HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return min;
  if (p >= 1.0) return max;
  // Rank in [0, count): the sample index the quantile falls on.
  const double rank = p * static_cast<double>(count);
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  double cum = static_cast<double>(underflow);  // underflow mass sits at min
  if (rank < cum) return min;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket > 0.0 && rank < cum + in_bucket) {
      const double frac = (rank - cum) / in_bucket;
      const double v = lo + (static_cast<double>(b) + frac) * width;
      return std::min(std::max(v, min), max);
    }
    cum += in_bucket;
  }
  return max;  // overflow mass (and p == 1-eps rounding) sits at max
}

bool MetricsSnapshot::has(const std::string& name) const {
  for (const auto& s : scalars) {
    if (s.name == name) return true;
  }
  return histogram(name) != nullptr;
}

double MetricsSnapshot::value(const std::string& name, double fallback) const {
  for (const auto& s : scalars) {
    if (s.name == name) return s.value;
  }
  return fallback;
}

const HistogramSnapshot* MetricsSnapshot::histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& s : scalars) w.kv(s.name, s.value);
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.kv("lo", h.lo).kv("hi", h.hi);
    w.kv("count", h.count).kv("sum", h.sum);
    if (h.count > 0) {
      w.kv("min", h.min).kv("max", h.max).kv("mean", h.mean());
      w.kv("p50", h.quantile(0.50)).kv("p99", h.quantile(0.99));
    }
    w.kv("underflow", h.underflow).kv("overflow", h.overflow);
    w.key("buckets").begin_array();
    for (const std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

}  // namespace pico::obs
