// Measurement harness of the benchmark driver: clocks, the fixed reference
// kernel, the reference-scaled meter, the span tracer and small statistics.
//
// Why a reference kernel: on a shared 4-core VM the same code runs up to
// 2x faster or slower for seconds at a time (other tenants contend for the
// cores and caches).  A reference kernel does a fixed amount of work and
// never calls into the library, so its duration tracks how fast the
// machine is at that moment and nothing else.  Every measured interval is
// multiplied by nominal_ms() / (kernel time measured around it), which
// turns wall seconds into seconds "at reference speed".  CPU seconds are
// scaled by the kernel's own CPU time, not its wall time: time the host
// steals from the vCPU lengthens wall time but is not charged as CPU time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds since an arbitrary origin.
double wall_s();
/// Process CPU time (user + system, every thread), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Process peak resident set size (VmHWM), MiB.
double peak_rss_mb();

/// Median and linear-interpolated quantile of a sample (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Wall and CPU time of one reference sample, ms.
struct RefSample {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// A fixed reference kernel: a batch of work that never calls into the
/// library.  Two shapes exist because no single one tracks every workload:
/// the rush campaigns slow down with the machine like a pointer-chasing
/// working set of megabytes, the rule storms and the explorer like a
/// compute loop over an L2-sized one (see README.md, "Noise handling").
class RefKernel {
 public:
  virtual ~RefKernel() = default;
  /// Time of one sample on an uncontended machine, ms: the numerator of
  /// the scale factor.  A constant, so scaled times compare across runs.
  virtual double nominal_ms() const = 0;
  /// Runs one sample and returns its wall and CPU time.  Each sample first
  /// walks the kernel's working set untimed, so the timing does not depend
  /// on what the workload left in the caches.
  virtual RefSample sample() = 0;
};

enum class RefKind { kCompact, kSprawling };

/// Heap pops/pushes and scattered updates of a 256 KiB table.
std::unique_ptr<RefKernel> make_compact_kernel();
/// A small discrete-event loop: a binary heap of timed events whose
/// std::function callbacks update an 8192-entry session hash map and
/// reallocate short strings (about 1 MiB, scattered).
std::unique_ptr<RefKernel> make_sprawling_kernel();

/// Wall and CPU seconds of one measured quantity, raw and scaled by the
/// `ref` kernel.
struct Acc {
  RefKind ref = RefKind::kCompact;
  double raw_s = 0.0;
  double scaled_s = 0.0;
  double cpu_raw_s = 0.0;
  double cpu_scaled_s = 0.0;
};

/// Times work intervals and scales each by the mean of the two reference
/// samples that bracket it: wall time by the samples' wall time, CPU time
/// by their CPU time.  Intervals are pending until the next sample; a
/// sample runs both kernels.
class Meter {
 public:
  /// Work measured between reference samples before one is forced.
  static constexpr double kSamplePeriodS = 0.02;

  Meter();

  /// Runs `fn` and books its wall and CPU time into `acc` (pending until
  /// the next reference sample).
  template <typename Fn>
  void work(Acc& acc, Fn&& fn) {
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    fn();
    const double t1 = wall_s();
    const double cpu1 = process_cpu_s();
    pending_.push_back({&acc, t1 - t0, cpu1 - cpu0});
    pending_wall_ += t1 - t0;
  }
  /// Takes a reference sample when enough work is pending.
  void maybe_sample() {
    if (pending_wall_ >= kSamplePeriodS) sample();
  }
  /// Takes a reference sample and settles every pending interval.
  void sample();
  /// The wall time of every sample of one kernel so far, ms.
  const std::vector<double>& ref_samples(RefKind kind) const {
    return kernels_[index(kind)].samples;
  }

 private:
  struct Kernel {
    std::unique_ptr<RefKernel> kernel;
    std::vector<double> samples;
    RefSample last;
    double factor = 1.0;
    double cpu_factor = 1.0;
  };
  struct Pending {
    Acc* acc;
    double wall_s;
    double cpu_s;
  };
  static std::size_t index(RefKind kind) {
    return kind == RefKind::kCompact ? 0 : 1;
  }
  Kernel kernels_[2];
  std::vector<Pending> pending_;
  double pending_wall_ = 0.0;
};

/// In-memory span recorder written out as Trace Event JSON.  Spans are
/// recorded on the main (coordinator) thread only.  Durations are kept per
/// span name for every traced repetition; the span list itself only while
/// `keep_spans` is set, so the file stays small.
class Tracer {
 public:
  bool on = false;
  bool keep_spans = false;
  /// Shared by every span of one repetition (the trace's op id).
  std::uint64_t trace_id = 0;

  /// Opens a span under the innermost open one; returns its id.
  std::uint64_t begin(const char* name, const char* cat);
  /// Closes the innermost span (must be `id`).
  void end(std::uint64_t id, std::string args = {});
  /// Records an already-measured span under the innermost open one.
  void complete(const char* name, const char* cat, double start_s,
                double end_s, std::string args = {});
  /// Records counter values now (a Perfetto counter track).
  void counter(const char* name,
               const std::vector<std::pair<const char*, double>>& values);

  /// Durations (s) of every span recorded under `name` while tracing.
  std::vector<double> durations(const std::string& name) const;
  /// Writes the kept spans and counters as {"traceEvents": [...]}.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id;
    const char* name;
    const char* cat;
    double start_s;
  };
  void record(const char* name, const char* cat, double start_s, double end_s,
              std::uint64_t id, std::uint64_t parent, const std::string& args);

  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<std::string> events_;  // rendered Trace Event objects
  std::map<std::string, std::vector<double>> durations_;
};

/// RAII span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, const char* cat)
      : tracer_(tracer), id_(tracer.on ? tracer.begin(name, cat) : 0) {}
  ~Span() {
    if (id_ != 0) tracer_.end(id_, std::move(args_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  std::string args_;
};

/// Renders a double with every significant digit (JSON number).
std::string num(double v);

}  // namespace perfbench
