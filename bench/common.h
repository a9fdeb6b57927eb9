// Shared helpers for the experiment binaries.
//
// World construction lives in aars::Runtime (api/runtime.h) — benches
// declare their topology through Runtime::builder() instead of wiring an
// Application by hand.  What remains here is reporting: tables, banners and
// the BENCH_*.json metrics dump.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/rss.h"

namespace aars::bench {

/// Markdown-ish table printer so every experiment reports uniform rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    const auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t i = 0; i < headers_.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : "";
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t w : widths) {
      std::printf("%s|", std::string(w + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

inline std::string fmt_us(util::Duration d) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(d));
  return buffer;
}

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

/// Wall-clock anchor for the perf section of BENCH_*.json. Set when
/// enable_metrics() runs, or directly at the top of main() by the benches
/// that keep the registry off; read when write_metrics_json() renders the
/// report.
inline std::chrono::steady_clock::time_point& perf_clock_start() {
  static std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

/// Turns on the process-wide metrics registry so the instrumented hot paths
/// (event loop, connectors, channels, reconfiguration, RAML, QoS) record
/// into it. Benches call this from main() before running.
inline void enable_metrics() {
  obs::Registry::global().set_enabled(true);
  perf_clock_start() = std::chrono::steady_clock::now();
}

/// Peak resident set size in kilobytes (KiB on every platform; see
/// util/rss.h for the per-OS ru_maxrss unit normalization).
inline long peak_rss_kb() { return util::peak_rss_kb(); }

/// Renders the cross-experiment perf section: wall-clock duration since
/// perf_clock_start(), simulated events executed (and the events/sec rate
/// they translate to) and peak RSS.  Every bench gets this in its
/// BENCH_*.json so the perf trajectory across PRs stays visible.
inline std::string perf_section_json(std::uint64_t events) {
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    perf_clock_start())
          .count();
  const double events_per_sec =
      wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "\"perf\": {\"wall_seconds\": %.6f, "
                "\"events_executed\": %llu, \"events_per_sec\": %.1f, "
                "\"peak_rss_kb\": %ld}",
                wall_seconds, static_cast<unsigned long long>(events),
                events_per_sec, peak_rss_kb());
  return buffer;
}

/// Reduces an experiment name to filesystem-safe characters so fault
/// scenario names like `storm "a"/b` can never produce an invalid or
/// path-traversing BENCH_*.json filename.  (The JSON *content* is escaped
/// separately by obs::json_escape on every name/label/detail string.)
inline std::string sanitize_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out.push_back(safe ? c : '_');
  }
  if (out.empty()) out = "experiment";
  return out;
}

/// Writes `BENCH_<experiment>.json` — the experiment name, a "perf" section
/// (wall-clock, events/sec, peak RSS), any experiment-specific
/// `extra_members` JSON fragment, and a "metrics" section rendering every
/// counter/gauge/histogram and the trace ring (see EXPERIMENTS.md "Metrics
/// & trace schema"). Call after the benchmarks ran.  The obs counter
/// sim.events_executed counts only while the registry is on, so a bench
/// that keeps it off passes `events_executed`: the sum of
/// EventLoop::executed() over the loops it ran.
inline void write_metrics_json(
    const std::string& experiment, const std::string& extra_members = "",
    std::optional<std::uint64_t> events_executed = std::nullopt) {
  const std::string path = "BENCH_" + sanitize_filename(experiment) + ".json";
  std::string members = perf_section_json(events_executed.value_or(
      obs::Registry::global().counter("sim.events_executed").value()));
  if (!extra_members.empty()) members += ", " + extra_members;
  if (obs::write_json_file(obs::Registry::global(), path, experiment,
                           members)) {
    std::printf("\nmetrics: wrote %s\n", path.c_str());
  } else {
    std::printf("\nmetrics: FAILED to write %s\n", path.c_str());
  }
}

}  // namespace aars::bench
