#include "adl/sema.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "util/strings.h"

namespace aars::adl {

using component::InterfaceDescription;
using component::ParamSpec;
using component::ServiceSignature;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Value;
using util::ValueType;

Result<ValueType> value_type_from_name(const std::string& name) {
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  if (name == "bool") return ValueType::kBool;
  if (name == "list") return ValueType::kList;
  if (name == "map") return ValueType::kMap;
  if (name == "any" || name == "null") return ValueType::kNull;
  return Error{ErrorCode::kInvalidArgument, "unknown type '" + name + "'"};
}

namespace {

bool literal_matches(ValueType declared, const Value& v) {
  if (declared == ValueType::kNull || v.is_null()) return true;
  if (declared == ValueType::kDouble && v.is_int()) return true;
  return v.type() == declared;
}

/// Rule-engine event names the runtime layers emit; conditions naming
/// anything else still compile (user code may emit custom events) but get a
/// warning so typos surface in `aars-lint --strict`.
const std::set<std::string>& known_events() {
  static const std::set<std::string> kEvents{
      "fault.host_down",     "fault.host_up",   "fault.link_down",
      "fault.link_up",       "fault.degrade_start", "fault.degrade_end",
      "fault.loss_start",    "fault.loss_end",  "fault.step_armed",
      "fault.step_cleared",
  };
  return kEvents;
}

/// Tracks the names visible to a rule's actions: the declared instances
/// plus instances introduced by earlier actions in the same rule block.
class RuleScope {
 public:
  explicit RuleScope(const std::map<std::string, std::size_t>& declared)
      : declared_(declared) {}

  bool resolves(const std::string& instance) const {
    return declared_.count(instance) != 0 || added_.count(instance) != 0;
  }
  void add(const std::string& instance) { added_.insert(instance); }
  void remove(const std::string& instance) { added_.erase(instance); }

 private:
  const std::map<std::string, std::size_t>& declared_;
  std::set<std::string> added_;
};

class Sema {
 public:
  Sema(Configuration config, Diagnostics& diags)
      : config_(std::move(config)), diags_(diags) {}

  CompiledConfiguration run() {
    analyze_interfaces();
    analyze_components();
    analyze_topology();
    analyze_instances();
    analyze_connectors();
    analyze_bindings();
    analyze_rules();
    analyze_goals();
    analyze_scenarios();
    analyze_properties();
    out_.ast = std::move(config_);
    return std::move(out_);
  }

 private:
  /// Reports every duplicate name among `decls`.
  template <typename T>
  void check_unique(const std::vector<T>& decls, const char* kind) {
    std::set<std::string> seen;
    for (const T& d : decls) {
      if (!seen.insert(d.name).second) {
        diags_.error(d.loc, "duplicate-name",
                     util::format("duplicate %s '%s'", kind, d.name.c_str()));
      }
    }
  }

  // --- interfaces ----------------------------------------------------------
  void analyze_interfaces() {
    check_unique(config_.interfaces, "interface");
    for (const AstInterface& iface : config_.interfaces) {
      InterfaceDescription desc(iface.name, iface.version);
      std::set<std::string> service_names;
      for (const AstService& svc : iface.services) {
        if (!service_names.insert(svc.name).second) {
          diags_.error(svc.loc, "duplicate-service",
                       "duplicate service '" + svc.name + "' in " + iface.name);
          continue;
        }
        ServiceSignature sig;
        sig.name = svc.name;
        auto result_type = value_type_from_name(svc.result_type);
        if (!result_type.ok()) {
          diags_.error(svc.loc, "unknown-type", result_type.error().message());
          continue;
        }
        sig.result = result_type.value();
        std::set<std::string> param_names;
        bool params_ok = true;
        for (const AstParam& p : svc.params) {
          if (!param_names.insert(p.name).second) {
            diags_.error(svc.loc, "duplicate-parameter",
                         "duplicate parameter '" + p.name + "' in " + svc.name);
            params_ok = false;
            break;
          }
          auto ptype = value_type_from_name(p.type);
          if (!ptype.ok()) {
            diags_.error(svc.loc, "unknown-type", ptype.error().message());
            params_ok = false;
            break;
          }
          sig.params.push_back(ParamSpec{p.name, ptype.value(), p.optional});
        }
        if (params_ok) desc.add_service(std::move(sig));
      }
      out_.interfaces.emplace(iface.name, std::move(desc));
    }
  }

  // --- components ----------------------------------------------------------
  void analyze_components() {
    check_unique(config_.components, "component");
    for (const AstComponent& comp : config_.components) {
      if (!comp.provides.empty() && !out_.interfaces.count(comp.provides)) {
        diags_.error(comp.loc, "unknown-interface",
                     comp.name + " provides unknown interface '" +
                         comp.provides + "'");
      }
      std::set<std::string> port_names;
      for (const AstRequire& req : comp.requires_) {
        if (!port_names.insert(req.port).second) {
          diags_.error(req.loc, "duplicate-port",
                       "duplicate port '" + req.port + "' on " + comp.name);
          continue;
        }
        if (!out_.interfaces.count(req.interface)) {
          diags_.error(req.loc, "unknown-interface",
                       comp.name + "." + req.port +
                           " requires unknown interface '" + req.interface +
                           "'");
        }
      }
      std::set<std::string> attr_names;
      for (const AstAttribute& attr : comp.attributes) {
        if (!attr_names.insert(attr.name).second) {
          diags_.error(attr.loc, "duplicate-attribute",
                       "duplicate attribute '" + attr.name + "' on " +
                           comp.name);
          continue;
        }
        auto atype = value_type_from_name(attr.type);
        if (!atype.ok()) {
          diags_.error(attr.loc, "unknown-type", atype.error().message());
          continue;
        }
        if (!literal_matches(atype.value(), attr.default_value)) {
          diags_.error(attr.loc, "type-mismatch",
                       "default for '" + attr.name +
                           "' does not match declared type " + attr.type);
        }
      }
      if (comp.protocol.has_value()) compile_protocol(comp);
      components_.emplace(comp.name, &comp);
    }
  }

  /// Compiles a `protocol { ... }` block into an Lts. The first declared
  /// state is the initial state (Lts state 0).
  void compile_protocol(const AstComponent& comp) {
    const AstProtocol& protocol = *comp.protocol;
    if (protocol.states.empty()) {
      diags_.error(protocol.loc, "empty-protocol",
                   "protocol on " + comp.name + " declares no states");
      return;
    }
    lts::Lts lts(comp.name);
    std::map<std::string, lts::StateId> states;
    for (std::size_t i = 0; i < protocol.states.size(); ++i) {
      const AstProtocolState& state = protocol.states[i];
      if (states.count(state.name)) {
        diags_.error(state.loc, "duplicate-state",
                     "duplicate protocol state '" + state.name + "' on " +
                         comp.name);
        return;
      }
      const lts::StateId id = i == 0 ? lts.initial() : lts.add_state();
      lts.set_final(id, state.final_state);
      states.emplace(state.name, id);
    }
    for (const AstProtocolTransition& t : protocol.transitions) {
      auto from = states.find(t.from);
      if (from == states.end()) {
        diags_.error(t.loc, "unknown-state",
                     "protocol transition from unknown state '" + t.from +
                         "' on " + comp.name);
        return;
      }
      auto to = states.find(t.to);
      if (to == states.end()) {
        diags_.error(t.loc, "unknown-state",
                     "protocol transition to unknown state '" + t.to + "' on " +
                         comp.name);
        return;
      }
      lts::Label label = t.direction == '?'   ? lts::in(t.action)
                         : t.direction == '!' ? lts::out(t.action)
                                              : lts::tau();
      lts.add_transition(from->second, std::move(label), to->second);
    }
    out_.protocols.emplace(comp.name, std::move(lts));
  }

  // --- nodes & links -------------------------------------------------------
  void analyze_topology() {
    check_unique(config_.nodes, "node");
    for (const AstNode& n : config_.nodes) node_names_.insert(n.name);
    for (const AstLink& link : config_.links) {
      if (!node_names_.count(link.from)) {
        diags_.error(link.loc, "unknown-node",
                     "link references unknown node '" + link.from + "'");
        continue;
      }
      if (!node_names_.count(link.to)) {
        diags_.error(link.loc, "unknown-node",
                     "link references unknown node '" + link.to + "'");
        continue;
      }
      if (link.from == link.to) {
        diags_.error(link.loc, "self-link", "self links are not allowed");
        continue;
      }
      if (link.bandwidth_bytes_per_sec <= 0) {
        diags_.error(link.loc, "invalid-value", "bandwidth must be positive");
      }
      if (link.latency_us < 0) {
        diags_.error(link.loc, "invalid-value", "latency must be >= 0");
      }
    }
  }

  // --- instances -----------------------------------------------------------
  void analyze_instances() {
    check_unique(config_.instances, "instance");
    for (std::size_t i = 0; i < config_.instances.size(); ++i) {
      const AstInstance& inst = config_.instances[i];
      auto comp_it = components_.find(inst.type);
      if (comp_it == components_.end()) {
        diags_.error(inst.loc, "unknown-type",
                     inst.name + ": unknown component type '" + inst.type +
                         "'");
        continue;
      }
      if (!node_names_.count(inst.node)) {
        diags_.error(inst.loc, "unknown-node",
                     inst.name + ": unknown node '" + inst.node + "'");
        continue;
      }
      const AstComponent& type = *comp_it->second;
      for (const auto& [attr_name, literal] : inst.attribute_overrides) {
        const AstAttribute* declared = nullptr;
        for (const AstAttribute& a : type.attributes) {
          if (a.name == attr_name) {
            declared = &a;
            break;
          }
        }
        if (declared == nullptr) {
          diags_.error(inst.loc, "unknown-attribute",
                       inst.name + ": component " + inst.type +
                           " has no attribute '" + attr_name + "'");
          continue;
        }
        auto atype = value_type_from_name(declared->type);
        if (atype.ok() && !literal_matches(atype.value(), literal)) {
          diags_.error(inst.loc, "type-mismatch",
                       inst.name + ": value for '" + attr_name +
                           "' does not match declared type " + declared->type);
        }
      }
      out_.instance_index.emplace(inst.name, i);
    }
  }

  // --- connectors ----------------------------------------------------------
  void analyze_connectors() {
    check_unique(config_.connectors, "connector");
    static const std::set<std::string> kRoutings{"direct", "round_robin",
                                                "broadcast", "least_backlog"};
    static const std::set<std::string> kDeliveries{"sync", "queued"};
    for (std::size_t i = 0; i < config_.connectors.size(); ++i) {
      const AstConnector& conn = config_.connectors[i];
      for (const std::string& aspect : conn.aspects) {
        if (std::find(kConnectorAspects.begin(), kConnectorAspects.end(),
                      aspect) == kConnectorAspects.end()) {
          diags_.error(conn.loc, "unknown-aspect",
                       conn.name + ": unknown aspect '" + aspect + "'");
        }
      }
      if (!kRoutings.count(conn.routing)) {
        diags_.error(conn.loc, "unknown-routing",
                     conn.name + ": unknown routing '" + conn.routing + "'");
        continue;
      }
      if (!kDeliveries.count(conn.delivery)) {
        diags_.error(conn.loc, "unknown-delivery",
                     conn.name + ": unknown delivery '" + conn.delivery + "'");
        continue;
      }
      if (conn.capacity <= 0) {
        diags_.error(conn.loc, "invalid-value",
                     conn.name + ": capacity must be positive");
        continue;
      }
      if (conn.budget_us < 0) {
        diags_.error(conn.loc, "invalid-value",
                     conn.name + ": budget must be >= 0");
        continue;
      }
      out_.connector_index.emplace(conn.name, i);
    }
  }

  // --- bindings ------------------------------------------------------------
  void analyze_bindings() {
    for (const AstBinding& bind : config_.bindings) {
      auto from_it = out_.instance_index.find(bind.from_instance);
      if (from_it == out_.instance_index.end()) {
        diags_.error(bind.loc, "unknown-instance",
                     "binding from unknown instance '" + bind.from_instance +
                         "'");
        continue;
      }
      const AstInstance& from_inst = config_.instances[from_it->second];
      auto from_comp = components_.find(from_inst.type);
      if (from_comp == components_.end()) continue;  // reported above
      const AstComponent& from_type = *from_comp->second;
      const AstRequire* port = nullptr;
      for (const AstRequire& req : from_type.requires_) {
        if (req.port == bind.from_port) {
          port = &req;
          break;
        }
      }
      if (port == nullptr) {
        diags_.error(bind.loc, "unknown-port",
                     from_inst.type + " has no required port '" +
                         bind.from_port + "'");
        continue;
      }
      auto required_it = out_.interfaces.find(port->interface);
      if (required_it == out_.interfaces.end()) continue;  // reported above
      const InterfaceDescription& required = required_it->second;
      bool providers_ok = true;
      for (const std::string& provider_name : bind.to_instances) {
        auto to_it = out_.instance_index.find(provider_name);
        if (to_it == out_.instance_index.end()) {
          diags_.error(bind.loc, "unknown-instance",
                       "binding to unknown instance '" + provider_name + "'");
          providers_ok = false;
          break;
        }
        const AstInstance& to_inst = config_.instances[to_it->second];
        auto to_comp = components_.find(to_inst.type);
        if (to_comp == components_.end()) {
          providers_ok = false;
          break;
        }
        const AstComponent& to_type = *to_comp->second;
        if (to_type.provides.empty()) {
          diags_.error(bind.loc, "no-provided-interface",
                       provider_name + " (type " + to_type.name +
                           ") provides no interface");
          providers_ok = false;
          break;
        }
        auto provided_it = out_.interfaces.find(to_type.provides);
        if (provided_it == out_.interfaces.end()) {
          providers_ok = false;
          break;
        }
        if (util::Status s = provided_it->second.satisfies(required);
            !s.ok()) {
          diags_.error(bind.loc, "interface-mismatch",
                       "binding " + bind.from_instance + "." + bind.from_port +
                           " -> " + provider_name + ": " + s.error().message());
          providers_ok = false;
          break;
        }
      }
      if (!providers_ok) continue;
      if (!bind.via_connector.empty() &&
          !out_.connector_index.count(bind.via_connector)) {
        diags_.error(bind.loc, "unknown-connector",
                     "binding via unknown connector '" + bind.via_connector +
                         "'");
        continue;
      }
      if (bind.to_instances.size() > 1) {
        if (bind.via_connector.empty()) {
          diags_.error(bind.loc, "missing-connector",
                       "multi-provider binding requires an explicit connector");
          continue;
        }
        const AstConnector& conn =
            config_.connectors[out_.connector_index.at(bind.via_connector)];
        if (conn.routing == "direct") {
          diags_.error(bind.loc, "invalid-routing",
                       "direct connector cannot serve multiple providers");
        }
      }
    }
  }

  // --- reconfiguration rules ----------------------------------------------
  void analyze_rules() {
    std::set<std::string> rule_names;
    for (const AstRule& rule : config_.rules) {
      if (!rule.name.empty() && !rule_names.insert(rule.name).second) {
        diags_.error(rule.loc, "duplicate-name",
                     util::format("duplicate rule '%s'", rule.name.c_str()));
      }
      analyze_condition(rule.condition);
      if (rule.cooldown_us < 0) {
        diags_.error(rule.loc, "invalid-value", "rule cooldown must be >= 0");
      }
      if (rule.deadline_us < 0) {
        diags_.error(rule.loc, "invalid-value", "rule deadline must be >= 0");
      }
      if (rule.guard.has_value()) analyze_guard(rule, *rule.guard);
      RuleScope scope(out_.instance_index);
      for (const AstRuleAction& action : rule.actions) {
        analyze_action(rule, action, scope);
      }
    }
  }

  /// A guard reads one instance of the declared deployment, resolved the
  /// way an action's target is; the runtime binds it to an id at install.
  void analyze_guard(const AstRule& rule, const AstPredicate& guard) {
    const std::string label =
        "rule" + (rule.name.empty() ? "" : " '" + rule.name + "'");
    if (guard.kind == AstPredicate::Kind::kRouted ||
        guard.kind == AstPredicate::Kind::kReplicas) {
      diags_.error(guard.loc, "unsupported-guard",
                   label + " guard must be exists(...) or running(...)");
      return;
    }
    if (!out_.instance_index.count(guard.subject)) {
      diags_.error(guard.loc, "unknown-instance",
                   label + " guard references unknown instance '" +
                       guard.subject + "'");
    }
    if (guard.kind == AstPredicate::Kind::kRunning &&
        !components_.count(guard.type)) {
      diags_.error(guard.loc, "unknown-type",
                   label + " guard uses unknown component type '" +
                       guard.type + "'");
    }
  }

  void analyze_condition(const AstCondition& cond) {
    if (cond.is_event) {
      if (!known_events().count(cond.event)) {
        diags_.warning(cond.loc, "unknown-event",
                       "event '" + cond.event +
                           "' is not emitted by any built-in watcher");
      }
      return;
    }
    if (cond.metric == "queue_depth") {
      if (cond.metric_subject.empty()) {
        diags_.error(cond.loc, "missing-metric-argument",
                     "queue_depth needs a connector argument");
      } else if (!out_.connector_index.count(cond.metric_subject)) {
        diags_.error(cond.loc, "unknown-connector",
                     "queue_depth references unknown connector '" +
                         cond.metric_subject + "'");
      }
    } else if (cond.metric == "backlog") {
      if (cond.metric_subject.empty()) {
        diags_.error(cond.loc, "missing-metric-argument",
                     "backlog needs a node argument");
      } else if (!node_names_.count(cond.metric_subject)) {
        diags_.error(cond.loc, "unknown-node",
                     "backlog references unknown node '" + cond.metric_subject +
                         "'");
      }
    } else if (cond.metric == "fault.active") {
      if (!cond.metric_subject.empty()) {
        diags_.error(cond.loc, "invalid-metric-argument",
                     "fault.active takes no argument");
      }
    } else {
      diags_.error(cond.loc, "unknown-metric",
                   "unknown condition metric '" + cond.metric +
                       "' (expected queue_depth, backlog or fault.active)");
    }
  }

  void analyze_action(const AstRule& rule, const AstRuleAction& action,
                      RuleScope& scope) {
    using Kind = AstRuleAction::Kind;
    const auto require_instance = [&](const std::string& name) {
      if (!scope.resolves(name)) {
        diags_.error(
            action.loc, "unknown-instance",
            "rule" + (rule.name.empty() ? "" : " '" + rule.name + "'") +
                " references unknown instance '" + name + "'");
        return false;
      }
      return true;
    };
    const auto require_type = [&](const std::string& name) {
      if (!components_.count(name)) {
        diags_.error(action.loc, "unknown-type",
                     "rule action uses unknown component type '" + name + "'");
      }
    };
    const auto require_node = [&](const std::string& name) {
      if (!node_names_.count(name)) {
        diags_.error(action.loc, "unknown-node",
                     "rule action uses unknown node '" + name + "'");
      }
    };
    switch (action.kind) {
      case Kind::kAdd:
        require_type(action.type);
        require_node(action.node);
        if (scope.resolves(action.name)) {
          diags_.error(action.loc, "duplicate-name",
                       "added instance '" + action.name + "' already exists");
        }
        scope.add(action.name);
        break;
      case Kind::kRemove:
        if (require_instance(action.instance)) scope.remove(action.instance);
        break;
      case Kind::kReplace:
        require_instance(action.instance);
        require_type(action.type);
        if (!action.name.empty()) {
          scope.remove(action.instance);
          scope.add(action.name);
        }
        break;
      case Kind::kMigrate:
        require_instance(action.instance);
        require_node(action.node);
        break;
      case Kind::kRebind:
        require_instance(action.instance);
        if (!out_.connector_index.count(action.connector)) {
          diags_.error(action.loc, "unknown-connector",
                       "rebind targets unknown connector '" + action.connector +
                           "'");
        }
        break;
      case Kind::kReroute:
        require_instance(action.instance);
        require_instance(action.replica);
        break;
      case Kind::kRedeployStranded:
        // The stranded set is the host the event names: only a host crash
        // names one.
        if (!rule.condition.is_event ||
            rule.condition.event != "fault.host_down") {
          diags_.error(action.loc, "redeploy-needs-host-down",
                       "'redeploy stranded' needs a rule triggered by "
                       "'event fault.host_down'");
        }
        break;
    }
  }

  // --- goals ---------------------------------------------------------------
  void analyze_goals() {
    check_unique(config_.goals, "goal");
    for (const AstGoal& goal : config_.goals) {
      // Contradiction check: for each connector, the tightest upper latency
      // bound must not fall below the tightest lower bound.
      std::map<std::string, std::int64_t> upper, lower;
      for (const AstQosBound& bound : goal.qos) {
        if (!out_.connector_index.count(bound.connector)) {
          diags_.error(bound.loc, "unknown-connector",
                       "goal '" + goal.name + "' bounds unknown connector '" +
                           bound.connector + "'");
          continue;
        }
        if (bound.latency_us < 0) {
          diags_.error(bound.loc, "invalid-value",
                       "latency bound must be >= 0");
          continue;
        }
        auto& side = bound.upper ? upper : lower;
        auto it = side.find(bound.connector);
        if (it == side.end()) {
          side.emplace(bound.connector, bound.latency_us);
        } else if (bound.upper) {
          it->second = std::min(it->second, bound.latency_us);
        } else {
          it->second = std::max(it->second, bound.latency_us);
        }
        auto up = upper.find(bound.connector);
        auto lo = lower.find(bound.connector);
        if (up != upper.end() && lo != lower.end() &&
            up->second < lo->second) {
          diags_.error(
              bound.loc, "contradictory-qos",
              util::format("goal '%s': contradictory latency bounds on '%s' "
                           "(<= %lldus but >= %lldus)",
                           goal.name.c_str(), bound.connector.c_str(),
                           static_cast<long long>(up->second),
                           static_cast<long long>(lo->second)));
        }
      }
      std::map<std::string, std::pair<int, int>> replica_range;  // [lo, hi]
      for (const AstReplicaBound& bound : goal.replicas) {
        if (!components_.count(bound.type)) {
          diags_.error(bound.loc, "unknown-type",
                       "goal '" + goal.name +
                           "' bounds unknown component type '" + bound.type +
                           "'");
          continue;
        }
        if (bound.count < 0) {
          diags_.error(bound.loc, "invalid-value",
                       "replica count must be >= 0");
          continue;
        }
        int lo = 0, hi = std::numeric_limits<int>::max();
        switch (bound.compare) {
          case AstCompare::kGe: lo = bound.count; break;
          case AstCompare::kGt: lo = bound.count + 1; break;
          case AstCompare::kLe: hi = bound.count; break;
          case AstCompare::kLt: hi = bound.count - 1; break;
          case AstCompare::kEq: lo = hi = bound.count; break;
          case AstCompare::kNe: break;  // no range constraint
        }
        auto [it, inserted] =
            replica_range.emplace(bound.type, std::make_pair(lo, hi));
        if (!inserted) {
          it->second.first = std::max(it->second.first, lo);
          it->second.second = std::min(it->second.second, hi);
        }
        if (it->second.first > it->second.second) {
          diags_.error(bound.loc, "contradictory-replicas",
                       util::format("goal '%s': contradictory replica bounds "
                                    "on '%s'",
                                    goal.name.c_str(), bound.type.c_str()));
        }
      }
      for (const AstPlacement& placement : goal.placements) {
        if (!out_.instance_index.count(placement.instance)) {
          diags_.error(placement.loc, "unknown-instance",
                       "goal '" + goal.name + "' places unknown instance '" +
                           placement.instance + "'");
        }
        if (!node_names_.count(placement.node)) {
          diags_.error(placement.loc, "unknown-node",
                       "goal '" + goal.name + "' places on unknown node '" +
                           placement.node + "'");
        }
      }
    }
  }

  // --- scenarios -----------------------------------------------------------
  void analyze_scenarios() {
    check_unique(config_.scenarios, "scenario");
    std::set<std::string> goal_names;
    for (const AstGoal& g : config_.goals) goal_names.insert(g.name);
    for (const AstScenario& scenario : config_.scenarios) {
      for (const std::string& goal : scenario.goals) {
        if (!goal_names.count(goal)) {
          diags_.error(scenario.loc, "unknown-goal",
                       "scenario '" + scenario.name +
                           "' references unknown goal '" + goal + "'");
        }
      }
      if (scenario.duration_us < 0) {
        diags_.error(scenario.loc, "invalid-value",
                     "scenario duration must be >= 0");
      }
      // Full fault/load line syntax is validated by the consumers
      // (fault::FaultScenario::parse, scenario::LoadPhase::parse), which
      // live above this layer; sema only rejects obviously-dead lines.
      for (const auto& [fault, loc] : scenario.faults) {
        if (fault.find_first_not_of(" \t") == std::string::npos) {
          diags_.error(loc, "empty-line", "scenario '" + scenario.name +
                                              "' has an empty fault line");
        }
      }
      for (const auto& [load, loc] : scenario.loads) {
        if (load.find_first_not_of(" \t") == std::string::npos) {
          diags_.error(loc, "empty-line", "scenario '" + scenario.name +
                                              "' has an empty load line");
        }
      }
    }
  }

  // --- path properties -----------------------------------------------------
  void analyze_properties() {
    check_unique(config_.properties, "property");
    // Predicates range over every instance name a reconfiguration path can
    // produce: the declared instances plus names rule actions introduce
    // (add, replace-as). An unknown name would be vacuously false forever.
    std::set<std::string> instance_universe;
    for (const auto& [name, idx] : out_.instance_index) {
      instance_universe.insert(name);
    }
    std::set<std::string> rule_names;
    for (std::size_t i = 0; i < config_.rules.size(); ++i) {
      const AstRule& rule = config_.rules[i];
      rule_names.insert(rule.name.empty() ? util::format("rule_%zu", i)
                                          : rule.name);
      for (const AstRuleAction& action : rule.actions) {
        if (!action.name.empty()) instance_universe.insert(action.name);
      }
    }
    for (const AstProperty& prop : config_.properties) {
      for (const AstPropertyClause& clause : prop.clauses) {
        if (clause.kind == AstPropertyClause::Kind::kReverts) {
          if (!rule_names.count(clause.rule)) {
            diags_.error(clause.loc, "unknown-rule",
                         "property '" + prop.name + "' reverts unknown rule '" +
                             clause.rule + "'");
          }
          continue;
        }
        const AstPredicate& pred = clause.pred;
        switch (pred.kind) {
          case AstPredicate::Kind::kExists:
          case AstPredicate::Kind::kRunning:
            if (!instance_universe.count(pred.subject)) {
              diags_.error(pred.loc, "unknown-instance",
                           "property '" + prop.name +
                               "' references unknown instance '" +
                               pred.subject + "'");
            }
            if (pred.kind == AstPredicate::Kind::kRunning &&
                !components_.count(pred.type)) {
              diags_.error(pred.loc, "unknown-type",
                           "property '" + prop.name +
                               "' references unknown component type '" +
                               pred.type + "'");
            }
            break;
          case AstPredicate::Kind::kRouted:
            if (!out_.connector_index.count(pred.subject)) {
              diags_.error(pred.loc, "unknown-connector",
                           "property '" + prop.name +
                               "' references unknown connector '" +
                               pred.subject + "'");
            }
            break;
          case AstPredicate::Kind::kReplicas:
            if (!components_.count(pred.subject)) {
              diags_.error(pred.loc, "unknown-type",
                           "property '" + prop.name +
                               "' references unknown component type '" +
                               pred.subject + "'");
            }
            break;
        }
      }
    }
  }

  Configuration config_;
  Diagnostics& diags_;
  CompiledConfiguration out_;
  std::map<std::string, const AstComponent*> components_;
  std::set<std::string> node_names_;
};

}  // namespace

CompiledConfiguration analyze(Configuration config, Diagnostics& diags) {
  Sema sema(std::move(config), diags);
  return sema.run();
}

CompiledPredicate lower_predicate(const AstPredicate& pred) {
  CompiledPredicate p;
  switch (pred.kind) {
    case AstPredicate::Kind::kExists: p.kind = PredicateKind::kExists; break;
    case AstPredicate::Kind::kRouted: p.kind = PredicateKind::kRouted; break;
    case AstPredicate::Kind::kRunning: p.kind = PredicateKind::kRunning; break;
    case AstPredicate::Kind::kReplicas:
      p.kind = PredicateKind::kReplicas;
      break;
  }
  p.negated = pred.negated;
  p.subject = util::Symbol(pred.subject);
  p.type = util::Symbol(pred.type);
  p.compare = pred.compare;
  p.count = pred.count;
  return p;
}

std::vector<CompiledPathProperty> lower_properties(const Configuration& ast) {
  std::vector<CompiledPathProperty> out;
  for (const AstProperty& prop : ast.properties) {
    for (const AstPropertyClause& clause : prop.clauses) {
      CompiledPathProperty lowered;
      lowered.property = util::Symbol(prop.name);
      lowered.line = clause.loc.line;
      lowered.column = clause.loc.column;
      switch (clause.kind) {
        case AstPropertyClause::Kind::kAlways:
          lowered.kind = PathPropertyKind::kAlways;
          break;
        case AstPropertyClause::Kind::kEventually:
          lowered.kind = PathPropertyKind::kEventually;
          break;
        case AstPropertyClause::Kind::kReverts:
          lowered.kind = PathPropertyKind::kReverts;
          lowered.rule = util::Symbol(clause.rule);
          break;
      }
      if (clause.kind != AstPropertyClause::Kind::kReverts) {
        lowered.pred = lower_predicate(clause.pred);
      }
      out.push_back(std::move(lowered));
    }
  }
  return out;
}

}  // namespace aars::adl
