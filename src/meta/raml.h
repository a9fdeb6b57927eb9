// RAML — the Reconfiguration and Adaptation Meta-Level.
//
// "An appropriate approach consists of setting up a Reconfiguration and
// Adaptation Meta-Level (RAML) which is in charge of observing the system,
// checking the compliancy of each application with its behavioral
// constraints and properties, and undertaking adaptation or reconfiguration
// actions.  These actions consist of interchanging the components or
// modifying the connections between the components of the targeted
// application" (§3).
//
// Raml runs a MAPE loop on the simulated clock:
//   Monitor  — every `period` (periodical measurements, §1) the installed
//              rule set samples its metric conditions and the watched QoS
//              monitors check contract compliancy;
//   Analyze  — rule conditions, sustain windows, guards and cooldowns;
//   Plan/Execute — a firing rule enacts its compiled action table as one
//              reconfig::Txn.
// Every adaptation is an ADL `when … reconfigure` rule; RAML is the clock
// and the event bus for one such rule program.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/injector.h"
#include "meta/rules.h"
#include "obs/metrics.h"
#include "qos/monitor.h"
#include "reconfig/rules.h"
#include "runtime/application.h"

namespace aars::meta {

class Raml {
 public:
  Raml(runtime::Application& app, util::Duration period);

  // --- observation surface ------------------------------------------------------
  RuleEngine& rules() { return rule_engine_; }
  /// Attaches a QoS monitor whose compliance is checked every tick; a
  /// violation emits the rule-engine event "qos_violation" with the
  /// compliance rendering as data.
  void watch(std::shared_ptr<qos::QosMonitor> monitor);

  // --- failure awareness ------------------------------------------------------
  /// Forwards fault injector transitions into the rule engine as events:
  /// "fault.host_down"/"fault.host_up", "fault.link_down"/"fault.link_up",
  /// "fault.degrade_start"/"fault.degrade_end", "fault.loss_start"/
  /// "fault.loss_end"; data carries {subject, host, began_at}.
  void watch_faults(fault::FaultInjector& injector);

  // --- ADL-declared rules -----------------------------------------------------
  /// Installs a compiled `when … reconfigure` rule set: metric-conditioned
  /// rules are evaluated every MAPE tick; event-conditioned rules subscribe
  /// to the FLO/C rule engine and fire when their trigger event arrives,
  /// with the event's `host` (the crashed host of "fault.host_down", for
  /// `redeploy stranded`). Pair with watch_faults() so "fault.*" triggers
  /// are actually emitted.
  void install_rule_set(std::shared_ptr<reconfig::RuleSet> rules);
  const std::shared_ptr<reconfig::RuleSet>& rule_set() const {
    return adl_rules_;
  }

  // --- loop -------------------------------------------------------------------
  void start();
  void stop();
  bool running() const { return running_; }
  util::Duration period() const { return period_; }

  std::uint64_t ticks() const { return ticks_; }
  /// Firings of the installed rule set; 0 when none is installed.
  std::uint64_t actions_taken() const {
    return adl_rules_ != nullptr ? adl_rules_->stats().fired : 0;
  }

  /// Runs one MAPE iteration immediately (also used by the periodic tick).
  void tick();

 private:
  void tick_and_next();

  sim::EventLoop& loop_;
  util::Duration period_;
  RuleEngine rule_engine_;
  std::vector<std::shared_ptr<qos::QosMonitor>> monitors_;
  bool running_ = false;
  sim::EventHandle pending_;
  std::uint64_t ticks_ = 0;
  std::shared_ptr<reconfig::RuleSet> adl_rules_;
  fault::FaultInjector* injector_ = nullptr;
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Counter* obs_ticks_;
  obs::HistogramMetric* obs_decision_ns_;
};

}  // namespace aars::meta
