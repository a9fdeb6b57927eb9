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
//   Monitor  — named sensors sampled every `period` (periodical
//              measurements, §1) + QoS monitors checking contract
//              compliancy;
//   Analyze  — policy conditions over the sample;
//   Plan/Execute — policy actions with access to the intercession surface
//              (the Application + ReconfigurationEngine + rule engine).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "meta/introspection.h"
#include "meta/rules.h"
#include "reconfig/rules.h"
#include "obs/metrics.h"
#include "qos/monitor.h"
#include "reconfig/engine.h"
#include "runtime/application.h"

namespace aars::meta {

/// One periodic measurement: sensor name -> value.
struct MetricSample {
  util::SimTime at = 0;
  std::map<std::string, double> values;

  double get(const std::string& name, double fallback = 0.0) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

/// A reactive management policy (the "specified criteria" of §1).
struct Policy {
  std::string name;
  /// Fires the action when true for a sample.
  std::function<bool(const MetricSample&)> condition;
  /// The adaptation/reconfiguration action.
  std::function<void(class Raml&)> action;
  /// Minimum spacing between firings (hysteresis); 0 = every tick.
  util::Duration cooldown = 0;
};

class Raml {
 public:
  Raml(runtime::Application& app, reconfig::ReconfigurationEngine& engine,
       util::Duration period);

  // --- observation surface ------------------------------------------------------
  SystemView& view() { return view_; }
  RuleEngine& rules() { return rule_engine_; }
  /// Registers a named sensor sampled every period.
  void add_sensor(const std::string& name, std::function<double()> sensor);
  /// Attaches a QoS monitor whose compliance is checked every tick; a
  /// violation emits the rule-engine event "qos_violation" with the
  /// compliance rendering as data.
  void watch(std::shared_ptr<qos::QosMonitor> monitor);

  // --- analysis/planning -----------------------------------------------------
  void add_policy(Policy policy);

  // --- failure awareness ------------------------------------------------------
  /// Forwards fault injector transitions into the rule engine as events:
  /// "fault.host_down"/"fault.host_up", "fault.link_down"/"fault.link_up",
  /// "fault.degrade_start"/"fault.degrade_end", "fault.loss_start"/
  /// "fault.loss_end"; data carries {subject, host, began_at}.  Also adds a
  /// "fault.active" sensor.
  void watch_faults(fault::FaultInjector& injector);

  // --- ADL-declared rules -----------------------------------------------------
  /// Installs a compiled `when … reconfigure` rule set: metric-conditioned
  /// rules are evaluated every MAPE tick (same hysteresis clock as the
  /// policies); event-conditioned rules subscribe to the FLO/C rule engine
  /// and fire when their trigger event arrives, with the event's `host`
  /// (the crashed host of "fault.host_down", for `redeploy stranded`).
  /// Pair with watch_faults() so "fault.*" triggers are actually emitted.
  /// Self-repair and degraded modes are rules of this set.
  void install_rule_set(std::shared_ptr<reconfig::RuleSet> rules);
  const std::shared_ptr<reconfig::RuleSet>& rule_set() const {
    return adl_rules_;
  }

  // --- execution (intercession surface) -----------------------------------------
  runtime::Application& app() { return app_; }
  reconfig::ReconfigurationEngine& engine() { return engine_; }

  // --- loop -------------------------------------------------------------------
  void start();
  void stop();
  bool running() const { return running_; }
  util::Duration period() const { return period_; }

  const MetricSample& last_sample() const { return last_sample_; }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t actions_taken() const { return actions_taken_; }

  /// Runs one MAPE iteration immediately (also used by the periodic tick).
  void tick();

 private:
  void tick_and_next();

  runtime::Application& app_;
  reconfig::ReconfigurationEngine& engine_;
  util::Duration period_;
  SystemView view_;
  RuleEngine rule_engine_;
  std::vector<std::pair<std::string, std::function<double()>>> sensors_;
  std::vector<std::shared_ptr<qos::QosMonitor>> monitors_;
  std::vector<Policy> policies_;
  std::map<std::string, util::SimTime> last_fired_;
  MetricSample last_sample_;
  bool running_ = false;
  sim::EventHandle pending_;
  std::uint64_t ticks_ = 0;
  std::uint64_t actions_taken_ = 0;
  std::shared_ptr<reconfig::RuleSet> adl_rules_;
  fault::FaultInjector* injector_ = nullptr;
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Counter* obs_ticks_;
  obs::Counter* obs_actions_;
  obs::HistogramMetric* obs_decision_ns_;
};

}  // namespace aars::meta
