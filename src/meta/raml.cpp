#include "meta/raml.h"

#include <chrono>

namespace aars::meta {

using util::Duration;

Raml::Raml(runtime::Application& app, Duration period)
    : loop_(app.loop()), period_(period), rule_engine_(app.loop()) {
  util::require(period > 0, "period must be positive");
  obs::Registry& reg = obs::Registry::global();
  obs_ticks_ = &reg.counter("raml.ticks");
  obs_decision_ns_ = &reg.histogram("raml.decision_latency_ns");
}

void Raml::watch(std::shared_ptr<qos::QosMonitor> monitor) {
  util::require(monitor != nullptr, "monitor required");
  monitors_.push_back(std::move(monitor));
}

namespace {

const char* fault_event_name(const fault::FaultEvent& event) {
  const bool begin = event.phase == fault::FaultEvent::Phase::kBegin;
  switch (event.kind) {
    case fault::FaultKind::kHostCrash:
      return begin ? "fault.host_down" : "fault.host_up";
    case fault::FaultKind::kLinkPartition:
      return begin ? "fault.link_down" : "fault.link_up";
    case fault::FaultKind::kLinkDegrade:
      return begin ? "fault.degrade_start" : "fault.degrade_end";
    case fault::FaultKind::kLinkLoss:
      return begin ? "fault.loss_start" : "fault.loss_end";
    case fault::FaultKind::kStepFault:
      return begin ? "fault.step_armed" : "fault.step_cleared";
  }
  return "fault.unknown";
}

}  // namespace

void Raml::watch_faults(fault::FaultInjector& injector) {
  if (injector_ == &injector) return;
  injector_ = &injector;
  injector.on_fault([this](const fault::FaultEvent& event) {
    rule_engine_.emit(
        fault_event_name(event),
        util::Value::object(
            {{"subject", event.subject},
             {"host", static_cast<std::int64_t>(event.host.raw())},
             {"began_at", static_cast<std::int64_t>(event.began_at)}}));
  });
}

void Raml::install_rule_set(std::shared_ptr<reconfig::RuleSet> rules) {
  util::require(rules != nullptr, "rule set required");
  util::require(adl_rules_ == nullptr, "rule set already installed");
  adl_rules_ = std::move(rules);
  // Event-conditioned rules don't poll: route each trigger through the
  // FLO/C engine so they fire the instant the event is emitted.
  for (const auto& [event, index] : adl_rules_->event_rules()) {
    const std::size_t idx = index;
    rule_engine_.subscribe(event.str(), [this, idx](const Event& event) {
      util::NodeId host;
      if (event.data.is_map() && event.data.contains("host")) {
        host = util::NodeId{
            static_cast<std::uint64_t>(event.data.at("host").as_int())};
      }
      adl_rules_->fire_event_rule(idx, event.at, host);
    });
  }
}

void Raml::tick() {
  ++ticks_;
  obs_ticks_->inc();
  // Wall-clock cost of one full MAPE iteration (monitor -> analyze ->
  // plan -> execute): the meta-level's own decision latency, which the
  // sim clock cannot see because the whole tick runs inside one event.
  const bool timed = obs::Registry::global().enabled();
  const auto wall_start = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  // Compliancy checking of watched contracts.
  for (const auto& monitor : monitors_) {
    const qos::Compliance compliance = monitor->evaluate();
    if (!compliance.compliant) {
      rule_engine_.emit("qos_violation", compliance.describe());
    }
  }
  // ADL-declared metric rules sample live application state through
  // pre-bound ids — no strings, no allocation on the steady-state path.
  if (adl_rules_ != nullptr) {
    adl_rules_->evaluate(loop_.now());
  }
  // Parked waitUntil events get a periodic chance to proceed.
  rule_engine_.poll_waiting();
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - wall_start;
    obs_decision_ns_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
}

void Raml::tick_and_next() {
  if (!running_) return;
  tick();
  pending_ = loop_.schedule_after(period_, [this] { tick_and_next(); });
}

void Raml::start() {
  if (running_) return;
  running_ = true;
  pending_ = loop_.schedule_after(period_, [this] { tick_and_next(); });
}

void Raml::stop() {
  running_ = false;
  pending_.cancel();
}

}  // namespace aars::meta
