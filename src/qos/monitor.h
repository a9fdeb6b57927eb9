// QoS monitoring.
//
// "Triggering and realizing reconfigurations should be based on (a)
// specified criteria and (b) periodical measurements on the evolving
// infrastructure" (§1).  QosMonitor implements the periodical-measurement
// half: it accumulates call records over a sliding window on the simulated
// clock, evaluates them against a contract, and fires violation hooks.
#pragma once

#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "qos/contract.h"
#include "sim/event_loop.h"
#include "util/stats.h"

namespace aars::qos {

class QosMonitor {
 public:
  using ViolationHook = std::function<void(const Compliance&)>;

  QosMonitor(sim::EventLoop& loop, QosContract contract,
             util::Duration window);

  const QosContract& contract() const { return contract_; }

  // --- feeding -------------------------------------------------------------
  void record_call(util::Duration latency, bool ok);
  void record_quality(int level);

  // --- evaluation -----------------------------------------------------------
  /// Evaluates the current window against the contract.
  Compliance evaluate();
  /// Starts periodic evaluation every `period`; violation hooks fire on
  /// every non-compliant evaluation.
  void start_periodic(util::Duration period);
  void stop_periodic();
  bool periodic_running() const { return periodic_running_; }

  void on_violation(ViolationHook hook);
  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t violations() const { return violations_; }

  // Window statistics exposed for controllers/benchmarks.
  double mean_latency() const { return latencies_.mean(); }
  double peak_latency() const { return latencies_.max(); }
  double throughput() const;
  double failure_rate() const;
  double mean_quality() const { return qualities_.mean(); }

 private:
  void tick(util::Duration period);

  sim::EventLoop& loop_;
  QosContract contract_;
  util::SlidingWindow latencies_;
  util::SlidingWindow failures_;  // 1.0 = failed call, 0.0 = ok
  util::SlidingWindow qualities_;
  bool periodic_running_ = false;
  sim::EventHandle periodic_;
  std::vector<ViolationHook> hooks_;
  // Monitors keep authoritative counts locally (the registry can be
  // disabled, and series are shared across monitors with the same contract
  // name) and mirror them into obs under "qos.*"{contract=...}.
  std::uint64_t evaluations_ = 0;
  std::uint64_t violations_ = 0;
  obs::Counter* obs_evaluations_;
  obs::Counter* obs_violations_;
};

}  // namespace aars::qos
