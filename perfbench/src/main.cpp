// Benchmark driver: runs one workload for a fixed wall-clock budget and
// prints its metrics as one JSON line (the last line of stdout).
//
//   perfbench_driver --workload rush_hour --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced repetitions, reports the per-layer metrics (counts from the
// repetitions, timings from the traced spans) and writes the spans of the
// first traced repetition as Trace Event JSON to --trace-file.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"api.build_s", "s"},
    {"adl.compile_s", "s"},
    {"scenario.lower_s", "s"},
    {"scenario.start_s", "s"},
    {"scenario.admitted", "count"},
    {"scenario.handovers", "count"},
    {"scenario.evacuated", "count"},
    {"sim.events", "count"},
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_peak", "count"},
    {"sim.node_utilisation", "ratio"},
    {"sim.shard.windows", "count"},
    {"sim.shard.events_per_window", "events/window"},
    {"sim.shard.cross_delivered", "count"},
    {"sim.shard.mailbox_overflows", "count"},
    {"sim.shard.window_us_p50", "us"},
    {"sim.shard.window_us_p99", "us"},
    {"connector.relayed", "count"},
    {"connector.relayed_per_op", "relays/op"},
    {"runtime.calls", "count"},
    {"runtime.failed_calls", "count"},
    {"runtime.timed_out", "count"},
    {"runtime.channel_held_peak", "count"},
    {"runtime.channel_hold_overflows", "count"},
    {"component.handled", "count"},
    {"telecom.frames_attempted", "count"},
    {"telecom.frames_failed", "count"},
    {"telecom.session_slots", "count"},
    {"telecom.media_evictions", "count"},
    {"telecom.frame_p99_sim_ms", "ms"},
    {"reconfig.install_s", "s"},
    {"reconfig.evaluations", "count"},
    {"reconfig.fired", "count"},
    {"reconfig.committed", "count"},
    {"reconfig.rolled_back", "count"},
    {"reconfig.suppressed", "count"},
    {"reconfig.rollback_steps", "count"},
    {"reconfig.verify_rejected", "count"},
    {"reconfig.settle_sim_ms_p99", "ms"},
    {"meta.ticks", "count"},
    {"meta.actions", "count"},
    {"fault.injected", "count"},
    {"fault.dropped", "count"},
    {"analysis.explore_s", "s"},
    {"analysis.configs", "count"},
    {"analysis.edges", "count"},
    {"analysis.aborted_firings", "count"},
    {"analysis.us_per_config", "us"},
    {"obs.series", "count"},
    {"obs.histogram_samples", "count"},
    {"obs.trace_recorded", "count"},
    {"bench.ref_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

/// Per-layer timings: the median duration (s) of a span.
struct SpanTiming {
  const char* metric;
  const char* span;
};
constexpr SpanTiming kSpanTimings[] = {
    {"api.build_s", "api.build"},
    {"adl.compile_s", "adl.compile"},
    {"scenario.lower_s", "scenario.lower"},
    {"scenario.start_s", "scenario.start"},
    {"reconfig.install_s", "reconfig.install"},
    {"analysis.explore_s", "analysis.explore"},
};

constexpr std::size_t kMinReps = 3;

/// Timed set-ups per repetition.  They run back to back after the
/// repetition's units, so each starts on caches the previous one filled.
/// The set-ups that open units run untimed: each follows a CPU move or
/// another unit's steps, and how much of the caches those leave cold
/// depends on the host (README.md, "Noise handling").
constexpr std::size_t kSetupSamples = 5;

/// ops_per_s and cpu_s are read at this quantile of the repetitions,
/// counted from the fast end: the fast quartile.  Contention on a shared
/// host only ever slows a repetition down, and for seconds at a time in a
/// way the reference kernels do not fully track, so the fast end of a run
/// repeats from run to run where its median does not (README.md, "Noise
/// handling").
constexpr double kFastQuantile = 0.25;

/// cpu_s is the CPU time of a fixed amount of work: this many ops.  The
/// seed sets how many ops one repetition holds, so CPU time per repetition
/// would move with the seed.
constexpr double kCpuOps = 1e5;

double fast_rate(const std::vector<double>& rates) {
  return quantile(rates, 1.0 - kFastQuantile);
}
double fast_time(const std::vector<double>& times) {
  return quantile(times, kFastQuantile);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_file;
};

struct Rep {
  Values values;  // cleared once checked, so memory does not grow with reps
  double ops = 0.0;
  double failed = 0.0;
  Acc run;
  bool traced = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "{rush_hour|rush_hour_sharded|reconfig_storm|explore_ladder} "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-file PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-file") {
      opt.trace_file = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

std::unique_ptr<Workload> make(const std::string& name, const Context& ctx) {
  if (name == "rush_hour") return make_rush_hour(ctx, 1);
  if (name == "rush_hour_sharded") return make_rush_hour(ctx, 2);
  if (name == "reconfig_storm") return make_reconfig_storm(ctx);
  if (name == "explore_ladder") return make_explore_ladder(ctx);
  usage(("unknown workload " + name).c_str());
}

/// One repetition; set-up samples land in `setups`, step time in rep.run.
void run_rep(Workload& wl, Meter& meter, std::deque<Acc>& setups, Rep& rep) {
  rep.run.ref = wl.step_reference();
  wl.begin_rep();
  for (std::size_t u = 0; u < wl.units(); ++u) {
    wl.setup(u);
    bool more = true;
    while (more) {
      meter.work(rep.run, [&] { more = wl.step(); });
      meter.maybe_sample();
    }
    wl.settle(rep.values);
    wl.teardown();
  }
  wl.probe(rep.values);
  for (std::size_t e = 0; e < kSetupSamples; ++e) {
    meter.work(setups.emplace_back(Acc{wl.setup_reference()}),
               [&] { wl.setup(0); });
    meter.maybe_sample();
    wl.teardown();
  }
}

std::string first_difference(const Values& a, const Values& b) {
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second != value) return key;
  }
  for (const auto& [key, value] : b) {
    if (a.find(key) == a.end()) return key;
  }
  return {};
}

/// Confines the process, and the shard workers each repetition starts, to
/// one CPU at a time, and moves it to the next allowed CPU between
/// repetitions.  On a shared VM a wake-up that crosses CPUs can stall for a
/// millisecond or more while the host is busy, which made the 2-shard rate
/// swing 3x between runs; on one CPU a shard handoff is a plain context
/// switch and the reference kernels run where the workload runs.  One vCPU
/// can also run the workload slowly for tens of seconds in a way the
/// reference kernels do not track; moving on spreads every run over every
/// CPU alike, so such a stretch costs each run the same share of its
/// repetitions.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  /// Pins to the CPU for the `turn`-th move.
  void pin(std::size_t turn) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

int run(const Options& opt) {
  std::vector<std::string> failures;
  Tracer tracer;
  const Context ctx{opt.seed, opt.smoke, &tracer, &failures};
  const std::unique_ptr<Workload> wl = make(opt.workload, ctx);
  const CpuRotation rotation;
  rotation.pin(0);
  Meter meter;

  wl->precheck();
  // Untimed warm-up repetition: fills lazy state and fixes the exact counts
  // every later repetition, traced or not, must reproduce.
  std::deque<Acc> warm_setups;
  Rep reference;
  run_rep(*wl, meter, warm_setups, reference);
  meter.sample();

  std::deque<Rep> reps;
  std::deque<Acc> setups;
  bool kept_spans = false;
  std::string mismatch;
  const double start = wall_s();
  while (reps.size() < kMinReps || wall_s() - start < opt.seconds) {
    // A traced run moves once per untraced/traced pair, so both halves of
    // the overhead comparison see every CPU.
    rotation.pin(opt.trace ? reps.size() / 2 : reps.size());
    Rep& rep = reps.emplace_back();
    rep.traced = opt.trace && reps.size() % 2 == 0;
    tracer.on = rep.traced;
    tracer.keep_spans = rep.traced && !kept_spans;
    tracer.trace_id = reps.size();
    run_rep(*wl, meter, setups, rep);
    kept_spans = kept_spans || rep.traced;
    tracer.on = tracer.keep_spans = false;
    if (mismatch.empty()) {
      mismatch = first_difference(reference.values, rep.values);
    }
    rep.ops = rep.values["ops"];
    rep.failed = rep.values["failed"];
    rep.values.clear();
  }
  const double elapsed = wall_s() - start;
  meter.sample();
  if (!mismatch.empty()) {
    failures.push_back("exact count '" + mismatch +
                       "' differs between repetitions of the same seed");
  }

  std::vector<double> rates, raw_rates, traced_rates, cpus, raw_cpus,
      run_ns_per_event;
  double attempted = 0.0, failed = 0.0;
  const double events = reference.values["sim.events"];
  for (const Rep& rep : reps) {
    attempted += rep.ops;
    failed += rep.failed;
    if (rep.run.scaled_s <= 0.0 || rep.ops <= 0.0) continue;
    const double rate = rep.ops / rep.run.scaled_s;
    if (rep.traced) {
      traced_rates.push_back(rate);
      continue;
    }
    rates.push_back(rate);
    raw_rates.push_back(rep.ops / rep.run.raw_s);
    cpus.push_back(rep.run.cpu_scaled_s * kCpuOps / rep.ops);
    raw_cpus.push_back(rep.run.cpu_raw_s * kCpuOps / rep.ops);
    if (events > 0) run_ns_per_event.push_back(rep.run.raw_s * 1e9 / events);
  }
  std::vector<double> setup_scaled, setup_raw;
  for (const Acc& acc : setups) {
    setup_scaled.push_back(acc.scaled_s);
    setup_raw.push_back(acc.raw_s);
  }

  Values metrics;
  if (!opt.trace) {
    metrics["ops_per_s"] = fast_rate(rates);
    metrics["setup_s"] = median(setup_scaled);
    metrics["cpu_s"] = fast_time(cpus);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    metrics = reference.values;
    for (const SpanTiming& timing : kSpanTimings) {
      metrics[timing.metric] = median(tracer.durations(timing.span));
    }
    const std::vector<double> windows = tracer.durations("sim.shard.window");
    metrics["sim.shard.window_us_p50"] = quantile(windows, 0.5) * 1e6;
    metrics["sim.shard.window_us_p99"] = quantile(windows, 0.99) * 1e6;
    metrics["sim.ns_per_event"] = median(run_ns_per_event);
    const double configs = metrics["analysis.configs"];
    metrics["analysis.us_per_config"] =
        configs > 0 ? metrics["analysis.explore_s"] * 1e6 / configs : 0.0;
    metrics["bench.ref_ms"] =
        median(meter.ref_samples(wl->step_reference()));
    metrics["bench.trace_overhead"] =
        traced_rates.empty() ? 0.0
                             : fast_rate(rates) / fast_rate(traced_rates) - 1.0;
    if (!opt.trace_file.empty()) {
      if (tracer.write(opt.trace_file)) {
        std::printf("trace: %s\n", opt.trace_file.c_str());
      } else {
        failures.push_back("cannot write trace file " + opt.trace_file);
      }
    }
  }

  const std::vector<double>& refs = meter.ref_samples(wl->step_reference());
  std::printf("%s seed=%llu reps=%zu setups=%zu elapsed=%.2fs ops/rep=%.0f "
              "ref_ms p25/p50/p75=%.4f/%.4f/%.4f raw ops_per_s=%.1f "
              "raw setup_s=%.6g raw cpu_s=%.6g\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              reps.size(), setups.size(), elapsed, reference.values["ops"],
              quantile(refs, 0.25), quantile(refs, 0.5), quantile(refs, 0.75),
              fast_rate(raw_rates), median(setup_raw), fast_time(raw_cpus));
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());

  std::string out = "{\"workload\":\"" + opt.workload + "\",\"correct\":" +
                    (failures.empty() ? "true" : "false") + ",\"attempted\":" +
                    num(attempted) + ",\"failed\":" + num(failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += std::string(i ? "," : "") + "\"" + json_escape(failures[i]) + "\"";
  }
  out += "],\"metrics\":{";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    out += std::string(first ? "" : ",") + "\"" + def.name +
           "\":{\"value\":" + num(metrics[def.name]) + ",\"unit\":\"" +
           def.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
