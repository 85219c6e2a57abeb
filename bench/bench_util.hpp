// bench_util.hpp — shared output helpers for the reproduction benches.
//
// Every bench prints (a) the regenerated table/figure and (b) a
// paper-vs-measured summary through these helpers so EXPERIMENTS.md can be
// cross-checked mechanically. BenchIo adds the machine-readable side: a
// uniform `--json[=file]` flag writing BENCH_<name>.json, and a
// `--telemetry[=prefix]` flag attaching a full obs::TelemetrySession
// (metrics + spans + run manifest).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/json.hpp"
#include "common/mathutil.hpp"
#include "common/table.hpp"
#include "obs/session.hpp"

namespace pico::bench {

inline void heading(const std::string& id, const std::string& title) {
  std::cout << "\n================================================================\n"
            << id << ": " << title << "\n"
            << "================================================================\n";
}

// Paper-vs-measured comparison table accumulated per bench. Rows keep their
// raw numbers alongside the formatted table so BenchIo can export them.
class PaperCheck {
 public:
  struct Row {
    std::string claim;
    bool numeric = false;
    double paper = 0.0;
    double measured = 0.0;
    double rel_diff = 0.0;
    std::string paper_text;
    std::string measured_text;
    bool ok = true;
  };

  explicit PaperCheck(std::string experiment) : table_("paper vs measured — " + experiment) {
    table_.set_header({"claim", "paper", "measured", "rel.diff", "verdict"});
  }

  void add(const std::string& claim, double paper, double measured, const std::string& unit,
           double tolerance = 0.25) {
    const double rd = rel_diff(paper, measured);
    const bool ok = rd <= tolerance;
    table_.add_row({claim, si(paper, unit), si(measured, unit), pct(rd),
                    ok ? "OK" : "DIVERGES"});
    rows_.push_back(Row{claim, true, paper, measured, rd, {}, {}, ok});
    if (!ok) ++diverging_;
  }

  void add_text(const std::string& claim, const std::string& paper,
                const std::string& measured, bool ok) {
    table_.add_row({claim, paper, measured, "-", ok ? "OK" : "DIVERGES"});
    rows_.push_back(Row{claim, false, 0.0, 0.0, 0.0, paper, measured, ok});
    if (!ok) ++diverging_;
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] int diverging() const { return diverging_; }

  // Prints the table; returns the number of diverging rows (bench exit code).
  int finish() {
    table_.print(std::cout);
    return diverging_;
  }

 private:
  Table table_;
  std::vector<Row> rows_;
  int diverging_ = 0;
};

// Per-bench I/O bundle: parses `--json[=file]` and `--telemetry[=prefix]`
// from the command line, collects headline metrics, and on finish() writes
// the machine-readable summary next to the human-readable table.
//
//   int main(int argc, char** argv) {
//     bench::BenchIo io("storage", argc, argv);
//     ...
//     io.metric("capacity_mah", measured);
//     bench::PaperCheck check("E3 / storage");
//     ...
//     return io.finish(check);
//   }
//
// The JSON document is stable across benches:
//   {"bench": ..., "metrics": {...}, "checks": [...], "diverging": N}
// tools/check_bench.py compares its metrics and numeric checks exactly
// with the bench's BENCH_BASELINE.json pins, so metric() takes only
// deterministic values: a wall-clock rate belongs in a printed table
// (perfbench/ measures throughput).
class BenchIo {
 public:
  BenchIo(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)),
        session_(obs::TelemetrySession::from_args(argc, argv, "bench_" + bench_)) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--json") {
        json_path_ = "BENCH_" + bench_ + ".json";
      } else if (a.rfind("--json=", 0) == 0) {
        json_path_ = a.substr(7);
      }
    }
  }

  [[nodiscard]] const std::string& name() const { return bench_; }
  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }

  // Null when --telemetry was absent; every obs hook accepts that.
  [[nodiscard]] obs::TelemetrySession* telemetry() { return session_.get(); }
  // Open a span against the session (inert without --telemetry).
  [[nodiscard]] obs::Span span(std::string label) {
    return obs::span(session_.get(), std::move(label));
  }

  // Record a headline number for the machine-readable summary.
  void metric(const std::string& key, double value) { metrics_.emplace_back(key, value); }

  // Print the check table, write the JSON summary if requested, flush
  // telemetry artifacts. Returns the bench exit code: diverging rows,
  // plus 1 if a live golden-envelope check breached during the run.
  int finish(PaperCheck& check) {
    const int diverging = check.finish();
    if (!json_path_.empty()) write_json(check);
    int rc = diverging;
    if (session_) {
      session_->manifest().set("bench", bench_);
      session_->manifest().set("diverging", diverging);
      session_->finish();
      rc += session_->exit_code();
    }
    return rc;
  }

 private:
  void write_json(const PaperCheck& check) const {
    std::ofstream out(json_path_);
    if (!out) {
      std::cerr << "bench_" << bench_ << ": cannot write " << json_path_ << "\n";
      return;
    }
    JsonWriter w(out);
    w.begin_object();
    w.kv("bench", bench_);
    w.key("metrics").begin_object();
    for (const auto& [key, value] : metrics_) w.kv(key, value);
    w.end_object();
    w.key("checks").begin_array();
    for (const PaperCheck::Row& r : check.rows()) {
      w.begin_object();
      w.kv("claim", r.claim);
      if (r.numeric) {
        w.kv("paper", r.paper);
        w.kv("measured", r.measured);
        w.kv("rel_diff", r.rel_diff);
      } else {
        w.kv("paper_text", r.paper_text);
        w.kv("measured_text", r.measured_text);
      }
      w.kv("ok", r.ok);
      w.end_object();
    }
    w.end_array();
    w.kv("diverging", check.diverging());
    w.end_object();
    out << "\n";
    std::cout << "wrote " << json_path_ << "\n";
  }

  std::string bench_;
  std::string json_path_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::unique_ptr<obs::TelemetrySession> session_;
};

// ASCII line plot of a (x, y) series: a quick look at "figure" shape.
inline void ascii_plot(const std::string& title, const std::vector<double>& x,
                       const std::vector<double>& y, std::size_t rows = 14,
                       std::size_t cols = 64) {
  if (x.empty() || x.size() != y.size()) return;
  double ymin = y[0], ymax = y[0];
  for (double v : y) {
    ymin = std::min(ymin, v);
    ymax = std::max(ymax, v);
  }
  if (ymax == ymin) ymax = ymin + 1.0;
  std::vector<std::string> grid(rows, std::string(cols, ' '));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        static_cast<double>(i) / static_cast<double>(x.size() - 1) *
        static_cast<double>(cols - 1));
    const double frac = (y[i] - ymin) / (ymax - ymin);
    const auto r = static_cast<std::size_t>(frac * static_cast<double>(rows - 1));
    grid[rows - 1 - r][c] = '*';
  }
  std::cout << "-- " << title << " --\n";
  std::printf("  ymax = %s\n", si(ymax, "").c_str());
  for (const auto& line : grid) std::cout << "  |" << line << "\n";
  std::printf("  ymin = %s   (x: %s .. %s)\n", si(ymin, "").c_str(), si(x.front(), "").c_str(),
              si(x.back(), "").c_str());
}

}  // namespace pico::bench
