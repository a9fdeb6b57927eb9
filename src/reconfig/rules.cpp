#include "reconfig/rules.h"

#include "sim/network.h"
#include "sim/node.h"
#include "util/strings.h"

namespace aars::reconfig {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

bool compare(adl::AstCompare op, double value, double threshold) {
  switch (op) {
    case adl::AstCompare::kLt: return value < threshold;
    case adl::AstCompare::kLe: return value <= threshold;
    case adl::AstCompare::kGt: return value > threshold;
    case adl::AstCompare::kGe: return value >= threshold;
    case adl::AstCompare::kEq: return value == threshold;
    case adl::AstCompare::kNe: return value != threshold;
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<RuleSet>> RuleSet::install(
    const adl::RuleProgram& program, Application& app,
    ReconfigurationEngine& engine, fault::FaultInjector* injector,
    TxnPolicy policy, const ExploreGate& gate) {
  // Model-check the program against the live deployment before binding a
  // single rule: an unsafe program is rejected (kEnforce) or counted
  // (kWarn) without ever becoming able to fire.
  if (gate.mode != analysis::VerifyMode::kOff && !program.rules.empty()) {
    const analysis::ExplorationResult exploration = analysis::explore(
        analysis::model_from(app), program, gate.options);
    const std::size_t errors = exploration.report.errors();
    if (errors > 0) {
      if (gate.mode == analysis::VerifyMode::kEnforce) {
        return Error{ErrorCode::kVerificationFailed,
                     "rule program rejected by configuration-space "
                     "exploration: " +
                         exploration.report.first_error()};
      }
      obs::Registry::global()
          .counter("rules.explore_findings")
          .inc(errors);
    }
  }

  std::shared_ptr<RuleSet> set(new RuleSet(app, engine, injector));

  for (const adl::CompiledRule& compiled : program.rules) {
    BoundRule rule;
    rule.name = compiled.name;
    rule.compare = compiled.condition.compare;
    rule.threshold = compiled.condition.threshold;
    rule.sustain_ticks = compiled.condition.sustain_ticks;
    rule.cooldown = compiled.cooldown_us;
    rule.deadline = compiled.deadline_us > 0 ? compiled.deadline_us
                                             : policy.default_deadline;
    rule.is_event = compiled.condition.is_event;
    if (rule.is_event) {
      set->event_rules_.emplace_back(compiled.condition.event,
                                     set->rules_.size());
    } else {
      rule.source = compiled.condition.source;
      switch (rule.source) {
        case adl::MetricSource::kQueueDepth:
          rule.metric_connector =
              app.connector_id(compiled.condition.subject.str());
          if (!rule.metric_connector.valid()) {
            return Error{ErrorCode::kNotFound,
                         "rule '" + rule.name.str() +
                             "': connector '" +
                             compiled.condition.subject.str() +
                             "' is not deployed"};
          }
          break;
        case adl::MetricSource::kNodeBacklog:
          rule.metric_node =
              app.network().node_id(compiled.condition.subject.str());
          if (!rule.metric_node.valid()) {
            return Error{ErrorCode::kNotFound,
                         "rule '" + rule.name.str() + "': node '" +
                             compiled.condition.subject.str() +
                             "' is not deployed"};
          }
          break;
        case adl::MetricSource::kFaultActive:
          if (injector == nullptr) {
            return Error{ErrorCode::kInvalidArgument,
                         "rule '" + rule.name.str() +
                             "' samples fault.active but no fault injector "
                             "was supplied"};
          }
          break;
      }
    }

    rule.actions.reserve(compiled.actions.size());
    for (const adl::CompiledAction& action : compiled.actions) {
      TxnAction bound;
      bound.op = action.op;
      bound.instance_name = action.instance;
      bound.type = action.type;
      bound.port = action.port;
      switch (action.op) {
        case adl::PlanOp::kAdd:
          bound.name = action.name;
          bound.node = app.network().node_id(action.node.str());
          if (!bound.node.valid()) {
            return Error{ErrorCode::kNotFound,
                         "rule '" + rule.name.str() + "': node '" +
                             action.node.str() + "' is not deployed"};
          }
          break;
        case adl::PlanOp::kReplace:
          // A replacement needs a fresh instance name; precompute one here
          // so firing never builds a string.
          bound.name = action.name.empty()
                           ? util::Symbol(action.instance.str() + "_new")
                           : action.name;
          break;
        case adl::PlanOp::kMigrate:
          bound.node = app.network().node_id(action.node.str());
          if (!bound.node.valid()) {
            return Error{ErrorCode::kNotFound,
                         "rule '" + rule.name.str() + "': node '" +
                             action.node.str() + "' is not deployed"};
          }
          break;
        case adl::PlanOp::kRebind:
          bound.connector = app.connector_id(action.connector.str());
          if (!bound.connector.valid()) {
            return Error{ErrorCode::kNotFound,
                         "rule '" + rule.name.str() + "': connector '" +
                             action.connector.str() + "' is not deployed"};
          }
          break;
        case adl::PlanOp::kReroute:
          // The replica may be created by an earlier action of this rule
          // (scale-out: add w2; reroute w to w2) — leave it symbolic then
          // and resolve through the txn's scratch table at fire time.
          bound.replica_name = action.replica;
          bound.replica = app.component_id(action.replica.str());
          break;
        case adl::PlanOp::kRemove:
        case adl::PlanOp::kRedeploy:  // not a rule verb
          break;
      }
      if (action.op != adl::PlanOp::kAdd) {
        // Bind the target now when it is part of the declared deployment;
        // targets created by earlier actions of the same rule stay symbolic
        // and resolve through the txn's firing-local scratch table.
        bound.instance = app.component_id(action.instance.str());
      }
      rule.actions.push_back(bound);
    }
    set->rules_.push_back(std::move(rule));
  }
  obs::Registry& reg = obs::Registry::global();
  set->obs_fired_ = &reg.counter("rules.fired");
  set->obs_failed_ = &reg.counter("rules.failed");
  set->obs_suppressed_ = &reg.counter("rules.suppressed");
  return set;
}

double RuleSet::sample(const BoundRule& rule, SimTime now) const {
  switch (rule.source) {
    case adl::MetricSource::kQueueDepth:
      return static_cast<double>(app_.queue_depth(rule.metric_connector));
    case adl::MetricSource::kNodeBacklog:
      return static_cast<double>(
          app_.network().node(rule.metric_node).backlog(now));
    case adl::MetricSource::kFaultActive:
      return static_cast<double>(injector_->active_faults());
  }
  return 0.0;
}

bool RuleSet::condition_holds(const BoundRule& rule, SimTime now) const {
  return compare(rule.compare, sample(rule, now), rule.threshold);
}

void RuleSet::evaluate(SimTime now) {
  ++stats_.evaluations;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    BoundRule& rule = rules_[i];
    if (rule.is_event) continue;
    if (!condition_holds(rule, now)) {
      rule.streak = 0;
      continue;
    }
    if (rule.streak < rule.sustain_ticks) ++rule.streak;
    if (rule.streak < rule.sustain_ticks) continue;
    if (rule.inflight ||
        (rule.ever_fired && now - rule.last_fired < rule.cooldown)) {
      ++stats_.suppressed;
      obs_suppressed_->inc();
      continue;
    }
    rule.streak = 0;
    fire(i, now);
  }
}

void RuleSet::fire_event_rule(std::size_t index, SimTime now) {
  if (index >= event_rules_.size()) return;
  const std::size_t rule_index = event_rules_[index].second;
  BoundRule& rule = rules_[rule_index];
  if (rule.inflight ||
      (rule.ever_fired && now - rule.last_fired < rule.cooldown)) {
    ++stats_.suppressed;
    obs_suppressed_->inc();
    return;
  }
  fire(rule_index, now);
}

void RuleSet::rebind_instance(ComponentId from, ComponentId to) {
  if (!from.valid() || !to.valid() || from == to) return;
  for (BoundRule& rule : rules_) {
    for (TxnAction& action : rule.actions) {
      if (action.instance == from) action.instance = to;
      if (action.replica == from) action.replica = to;
    }
  }
}

void RuleSet::fire(std::size_t rule_index, SimTime now) {
  BoundRule& rule = rules_[rule_index];
  ++stats_.fired;
  obs_fired_->inc();
  rule.ever_fired = true;
  rule.last_fired = now;
  rule.inflight = true;

  // Firing-time allocation is fine — a reconfiguration is in progress.
  Txn::Options options;
  options.deadline = rule.deadline;
  options.injector = injector_;
  auto txn = Txn::create(app_, engine_, rule.name.str(), options);
  for (const TxnAction& action : rule.actions) txn->enqueue(action);

  // The txn outlives anything: its protocol callbacks keep it alive on the
  // event loop, and the RuleSet may be torn down (or rules_ reallocated)
  // while a protocol is still in flight.  Hence a weak_ptr plus a stable
  // rule index — never a BoundRule pointer.
  std::weak_ptr<RuleSet> weak = weak_from_this();
  txn->run([weak, rule_index](const ReconfigReport& report) {
    if (auto self = weak.lock()) self->on_firing_done(rule_index, report);
  });
}

void RuleSet::on_firing_done(std::size_t rule_index,
                             const ReconfigReport& report) {
  BoundRule& rule = rules_[rule_index];
  rule.inflight = false;

  std::uint64_t failed_steps = 0;
  for (const StepOutcome& step : report.steps) {
    if (!step.attempted) continue;
    ++stats_.actions;
    if (!step.status.ok()) ++failed_steps;
  }
  // A deadline abort can roll back a firing whose every attempted step
  // succeeded; make sure that still counts as a failed firing.
  if (failed_steps == 0 && !report.ok()) failed_steps = 1;
  if (failed_steps > 0) {
    stats_.failed += failed_steps;
    obs_failed_->inc(failed_steps);
  }

  if (report.verdict == TxnVerdict::kCommitted) {
    ++stats_.committed;
    // Mirror committed instance swaps into the pre-bound action tables so
    // later firings target the live implementation.
    for (const StepOutcome& step : report.steps) {
      if (step.swapped_from.valid() && step.swapped_to.valid()) {
        rebind_instance(step.swapped_from, step.swapped_to);
      }
    }
  } else if (report.verdict == TxnVerdict::kRolledBack) {
    ++stats_.rolled_back;
  }

  if (firing_observer_) firing_observer_(rule.name, report);
}

}  // namespace aars::reconfig
