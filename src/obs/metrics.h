// Observability substrate: metrics registry + structured trace buffer.
//
// The paper's RAML vision rests on "monitoring and measuring techniques at
// the meta-level" — introspection of the running system is the input to
// every adaptation decision.  This module is the uniform measurement
// backbone: named counters, gauges and histograms (keyed by name + labels)
// plus a bounded ring buffer of structured trace events (message relays,
// reconfiguration phases, RAML decisions, QoS violations).
//
// Design constraints:
//   * Near-zero overhead when disabled.  The registry starts disabled; a
//     record into a kept handle is a single predictable branch on a cached
//     flag, so instrumented hot paths (connector relay, event dispatch)
//     cost nothing measurable until a bench or experiment opts in.  A
//     lookup by name is not gated: it takes the mutex, canonicalises the
//     labels, allocates and creates the series even while the registry is
//     off.  The sites that still look up at record time are the fault
//     injector (fault.injected, fault.active, fault.dropped_during_fault),
//     the engine's verify.warned / verify.rejected, Txn's
//     txn.step_faults, txn.rollback_steps and txn.rollback_failures, and
//     the install-time rules.explore_findings.
//   * Stable handles.  Instrumented classes resolve their instruments once
//     (at construction, or at first use where a series must exist only once
//     recorded, as the reconfiguration engine's phase and txn instruments
//     and the retry policy's fault.retries and fault.retry_exhausted) and
//     keep pointers; instruments are never deallocated while the registry
//     lives, so recording is lock-free and allocation-free.
//   * Mirror, not source of truth.  Subsystems keep their own counters for
//     control decisions (tests and protocols rely on them regardless of
//     whether observability is on); the registry mirrors those signals for
//     export and cross-cutting observation.
//   * Contention-safe.  Sharded execution records from several worker
//     threads into the one global registry: instrument *resolution* is
//     mutex-guarded (cold, typically at construction), counters and gauges
//     record with relaxed atomics (no torn counts, no TSan findings, no
//     cross-instrument ordering promised), and histogram observation takes
//     a per-instrument mutex.  Reading values/exporting is intended for
//     quiescent points (between shard windows, after runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace aars::obs {

/// Metric labels: sorted key/value pairs. Kept canonical (sorted, unique
/// keys) by the registry so {a=1,b=2} and {b=2,a=1} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry;

/// Monotonically increasing count (events executed, messages dropped...).
/// Thread-safe: increments are relaxed atomics (exact totals, no ordering).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level plus a high-water mark (queue depth, in-flight...).
/// Thread-safe: last-writer-wins level, CAS-maintained high water.  add()
/// is not atomic read-modify-write across threads — use it only from the
/// instrument's single writer (every current caller is per-shard state).
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
    double hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw && !high_water_.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }
  void add(double delta) {
    set(value_.load(std::memory_order_relaxed) + delta);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  double high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
  std::atomic<double> high_water_{0.0};
};

/// Sample distribution with exact percentiles (leans on util::Histogram).
/// Intended for bounded experiment outputs — latencies, phase durations —
/// not unbounded production streams.  observe() is mutex-guarded (cheap,
/// uncontended in per-shard use); samples() hands out an unguarded
/// reference — read it only at quiescent points (no concurrent observers).
class HistogramMetric {
 public:
  void observe(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu_);
    samples_.add(v);
  }
  const util::Histogram& samples() const { return samples_; }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.count();
  }

 private:
  friend class Registry;
  explicit HistogramMetric(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  mutable std::mutex mu_;
  util::Histogram samples_;
};

/// What a trace event describes.
enum class TraceKind {
  kRelay,         // a connector relayed (or intercepted) a message
  kReconfig,      // a reconfiguration protocol phase transition
  kQosViolation,  // a QoS contract evaluation failed
  kFault,         // an injected fault began or ended, or a repair completed
  kTxn,           // a transactional enactment committed or rolled back
  kCustom,        // anything else an experiment wants on the timeline
};

constexpr const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kRelay: return "relay";
    case TraceKind::kReconfig: return "reconfig";
    case TraceKind::kQosViolation: return "qos_violation";
    case TraceKind::kFault: return "fault";
    case TraceKind::kTxn: return "txn";
    case TraceKind::kCustom: return "custom";
  }
  return "?";
}

/// Collapses unbounded per-instance suffixes in a trace/metric subject name
/// so cardinality stays bounded over long runs: any chain of generated
/// "_r<n>" redeploy suffixes becomes a single "_r*" ("svc_r17" and
/// "svc_r3_r12" both map to "svc_r*"), and names longer than
/// kMaxTraceNameLength are truncated with a "…" marker.  Applied by
/// Registry::trace() to every event name.
inline constexpr std::size_t kMaxTraceNameLength = 96;
std::string sanitize_trace_name(std::string name);

/// One entry on the simulation timeline.
struct TraceEvent {
  util::SimTime at = 0;
  TraceKind kind = TraceKind::kCustom;
  std::string name;    // subject: connector, phase, policy or contract name
  std::string detail;  // free-form context (kept short; it lands in JSON)
};

/// Fixed-capacity ring of recent trace events. When full, the oldest entry
/// is overwritten; `dropped()` counts the overwritten ones so exports can
/// say "showing the last N of M".
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : capacity_(capacity) {}

  void record(TraceEvent event);
  /// Rebounds the ring, keeping the newest `capacity` events (0 disables
  /// retention; `recorded()` still counts).  Capacity runs size the ring
  /// down so tracing stays O(1) regardless of population.
  void set_capacity(std::size_t capacity);
  /// Events oldest-first (at most `capacity()` of them).
  std::vector<TraceEvent> snapshot() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(size());
  }
  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot once the ring wrapped
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> ring_;
};

/// Owns every instrument and the trace buffer. Instruments are created on
/// first lookup and live as long as the registry, so callers may cache the
/// returned references.
class Registry {
 public:
  static constexpr std::size_t kDefaultTraceCapacity = 4096;

  explicit Registry(std::size_t trace_capacity = kDefaultTraceCapacity)
      : trace_(trace_capacity) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry the built-in instrumentation records into.
  static Registry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Flip only at quiescent points (no shard worker mid-window): the flag
  /// is atomic, but instruments gate on it per record, so toggling mid-run
  /// splits which records land.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // --- instruments ----------------------------------------------------------
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  HistogramMetric& histogram(const std::string& name,
                             const Labels& labels = {});

  // --- tracing --------------------------------------------------------------
  /// Records a trace event (no-op while disabled).
  void trace(util::SimTime at, TraceKind kind, std::string name,
             std::string detail = {});
  /// Rebounds the trace ring (keeping the newest events).  Sharded capacity
  /// campaigns shrink this per run so N shards' worth of tracing stays a
  /// fixed fraction of the footprint budget.  Call at quiescent points.
  void set_trace_capacity(std::size_t capacity);
  const TraceBuffer& trace_buffer() const { return trace_; }

  // --- export / inspection --------------------------------------------------
  struct Series {
    std::string name;
    Labels labels;
  };
  template <typename T>
  using Family = std::map<std::pair<std::string, Labels>, std::unique_ptr<T>>;

  /// Export-side views: iterate only at quiescent points (concurrent
  /// instrument *creation* would rehash/rebalance under the reader).
  const Family<Counter>& counters() const { return counters_; }
  const Family<Gauge>& gauges() const { return gauges_; }
  const Family<HistogramMetric>& histograms() const { return histograms_; }

  /// Zeroes every counter/gauge/histogram and clears the trace, keeping the
  /// instruments alive (handles cached by instrumented objects stay valid).
  /// Benches use this to scope the exported metrics to the measured run.
  void reset_values();

 private:
  static Labels canonical(Labels labels);

  std::atomic<bool> enabled_{false};
  /// Guards instrument creation (the family maps) and the trace ring —
  /// cold paths; recording into existing instruments never takes it.
  mutable std::mutex mu_;
  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<HistogramMetric> histograms_;
  TraceBuffer trace_;
};

}  // namespace aars::obs
