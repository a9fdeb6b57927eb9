// Abstract syntax of the AARS configuration language.
//
// The language follows the shape the paper attributes to Polylith and the
// ADL family (§1): interface definitions, component types with provided and
// required services, node/link topology, instances with placement, connector
// declarations, and bindings between required ports and serving instances.
//
// Example:
//
//   interface Storage version 1 {
//     service put(key: string, value: string) -> bool;
//     service get(key: string) -> string;
//   }
//   component CacheServer provides Storage {
//     requires backing: Storage;
//     attribute capacity: int = 1024;
//   }
//   node edge { capacity 2000; }
//   node core { capacity 8000; }
//   link edge <-> core { latency 5ms; bandwidth 100mbps; }
//   instance cache: CacheServer on edge { capacity = 4096; }
//   instance store: DiskStore on core;
//   connector c0 { routing direct; delivery sync; }
//   bind cache.backing -> store via c0;
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/value.h"

namespace aars::adl {

/// Location of a construct in the source text (for diagnostics).
struct SourceLoc {
  int line = 0;
  int column = 0;
};

struct AstParam {
  std::string name;
  std::string type;  // int|double|string|bool|list|map|any
  bool optional = false;
};

struct AstService {
  std::string name;
  std::vector<AstParam> params;
  std::string result_type = "any";
  SourceLoc loc;
};

struct AstInterface {
  std::string name;
  int version = 1;
  std::vector<AstService> services;
  SourceLoc loc;
};

struct AstRequire {
  std::string port;
  std::string interface;
  SourceLoc loc;
};

struct AstAttribute {
  std::string name;
  std::string type;
  util::Value default_value;
  SourceLoc loc;
};

/// One state declaration inside a `protocol { ... }` block. The first
/// declared state is the protocol's initial state.
struct AstProtocolState {
  std::string name;
  bool final_state = false;
  SourceLoc loc;
};

/// One transition inside a `protocol { ... }` block:
///   from -> to on action?;   (input)
///   from -> to on action!;   (output)
///   from -> to on tau;       (internal move)
struct AstProtocolTransition {
  std::string from;
  std::string to;
  std::string action;    // empty for tau
  char direction = 't';  // '?' input, '!' output, 't' tau
  SourceLoc loc;
};

/// A behavioural protocol (finite LTS) attached to a component type. The
/// static analyser composes the protocols of bound instances and checks the
/// n-way composition for deadlock-freedom (Wright-style, §3).
struct AstProtocol {
  std::vector<AstProtocolState> states;
  std::vector<AstProtocolTransition> transitions;
  SourceLoc loc;
};

struct AstComponent {
  std::string name;
  std::string provides;  // interface name; may be empty for pure clients
  std::vector<AstRequire> requires_;
  std::vector<AstAttribute> attributes;
  std::optional<AstProtocol> protocol;
  SourceLoc loc;
};

struct AstNode {
  std::string name;
  double capacity = 1000.0;  // work units / second
  SourceLoc loc;
};

struct AstLink {
  std::string from;
  std::string to;
  bool duplex = false;
  std::int64_t latency_us = 1000;
  double bandwidth_bytes_per_sec = 12.5e6;
  std::int64_t jitter_us = 0;
  double loss = 0.0;
  SourceLoc loc;
};

struct AstInstance {
  std::string name;
  std::string type;
  std::string node;
  std::vector<std::pair<std::string, util::Value>> attribute_overrides;
  SourceLoc loc;
};

struct AstConnector {
  std::string name;
  std::string routing = "direct";   // direct|round_robin|broadcast|least_backlog
  std::string delivery = "sync";    // sync|queued
  std::int64_t capacity = 1024;
  /// Declared round-trip latency budget (QoS contract) in microseconds;
  /// 0 = unconstrained. The static analyser checks feasibility against the
  /// topology's path-latency lower bound.
  std::int64_t budget_us = 0;
  std::vector<std::string> aspects;
  SourceLoc loc;
};

struct AstBinding {
  std::string from_instance;
  std::string from_port;
  std::vector<std::string> to_instances;  // one or more providers
  std::string via_connector;              // empty => implicit direct
  SourceLoc loc;
};

// --- reconfiguration rules -----------------------------------------------------
//
// Dynamic reconfiguration is a first-class construct of the language
// (Minora/Buisson): a rule binds a runtime condition to a block of
// reconfiguration actions, compiled ahead of time into pre-resolved
// dispatch tables so firing never parses or hashes a name.
//
//   when queue_depth(jobs) > 48 for 2 ticks reconfigure shed_load {
//     cooldown 2s;
//     deadline 200ms;
//     replace worker with CheapWorker;
//   }
//   when event fault.host_down reconfigure {
//     reroute primary to standby;
//   }
//   when queue_depth(jobs) <= 4 if running(worker, CheapWorker)
//       reconfigure restore {
//     replace worker with Worker;
//   }
//   when event fault.host_down reconfigure self_repair {
//     redeploy stranded;
//   }

/// Comparison operator in a metric condition.
enum class AstCompare { kLt, kLe, kGt, kGe, kEq, kNe };

constexpr const char* to_string(AstCompare c) {
  switch (c) {
    case AstCompare::kLt: return "<";
    case AstCompare::kLe: return "<=";
    case AstCompare::kGt: return ">";
    case AstCompare::kGe: return ">=";
    case AstCompare::kEq: return "==";
    case AstCompare::kNe: return "!=";
  }
  return "?";
}

/// Trigger of a `when ... reconfigure` rule: either a named rule-engine
/// event or a metric threshold, optionally sustained over several ticks.
struct AstCondition {
  bool is_event = false;
  std::string event;            // is_event
  std::string metric;           // !is_event: queue_depth|backlog|fault.active
  std::string metric_subject;   // connector/node argument; may be empty
  AstCompare compare = AstCompare::kGt;
  double threshold = 0.0;
  int sustain_ticks = 1;        // "for N ticks"
  SourceLoc loc;
};

/// One reconfiguration action inside a rule block, mirroring the engine's
/// change classes (add/remove/replace/migrate/rebind/reroute), plus
/// `redeploy stranded`: every component on the host a `fault.host_down`
/// event names, moved at firing time.
struct AstRuleAction {
  enum class Kind {
    kAdd,
    kRemove,
    kReplace,
    kMigrate,
    kRebind,
    kReroute,
    kRedeployStranded
  };
  Kind kind = Kind::kRemove;
  std::string instance;   // target of every action but kRedeployStranded
  std::string type;       // kAdd / kReplace: component type
  std::string name;       // kAdd: new instance name; kReplace: optional "as"
  std::string node;       // kAdd / kMigrate: destination node
  std::string port;       // kRebind
  std::string connector;  // kRebind
  std::string replica;    // kReroute
  SourceLoc loc;
};

/// Atomic predicate over one configuration (a path-property clause, or a
/// rule's `if` guard):
///   [not] exists(inst)          — the instance is deployed
///   [not] routed(conn)          — every binding through the connector keeps
///                                 a provider with a feasible (budget-
///                                 respecting) route
///   [not] running(inst, Type)   — the instance exists and currently runs
///                                 implementation Type (degraded-mode flag)
///   replicas(Type) CMP N        — deployed instance count of the type
struct AstPredicate {
  enum class Kind { kExists, kRouted, kRunning, kReplicas };
  Kind kind = Kind::kExists;
  bool negated = false;  // `not <pred>`
  /// kExists/kRunning: instance; kRouted: connector; kReplicas: type.
  std::string subject;
  std::string type;  // kRunning: expected implementation type
  AstCompare compare = AstCompare::kGe;  // kReplicas
  int count = 0;                         // kReplicas
  SourceLoc loc;
};

struct AstRule {
  std::string name;  // optional; auto-named "rule_<n>" when empty
  AstCondition condition;
  /// `if <predicate>` guard (exists/running only): a rule whose guard is
  /// false is not enabled, so it neither fires nor counts as suppressed.
  std::optional<AstPredicate> guard;
  std::vector<AstRuleAction> actions;
  std::int64_t cooldown_us = 0;  // `cooldown 2s;` property
  /// `deadline 200ms;` property: whole-firing budget for the transactional
  /// enactment of this rule — when it expires mid-plan, the steps applied so
  /// far are rolled back in reverse order. 0 = no rule-level deadline (the
  /// runtime default applies).
  std::int64_t deadline_us = 0;
  SourceLoc loc;
};

// --- goals & scenarios ---------------------------------------------------------
//
//   goal premium {
//     latency jobs <= 5ms;
//     replicas Worker >= 2;
//     place frontend on edge;
//   }
//   scenario rush_hour {
//     description "x1.7 capacity flash crowd";
//     goal premium;
//     fault "crash host core at 2s for 1s";
//   }

struct AstQosBound {
  std::string connector;
  bool upper = true;  // <= (upper) vs >= (lower)
  std::int64_t latency_us = 0;
  SourceLoc loc;
};

struct AstReplicaBound {
  std::string type;
  AstCompare compare = AstCompare::kGe;
  int count = 0;
  SourceLoc loc;
};

struct AstPlacement {
  std::string instance;
  std::string node;
  SourceLoc loc;
};

/// Declarative management goal (MORPH-style): QoS bounds, replica counts
/// and placement constraints the strategy layer must maintain.
struct AstGoal {
  std::string name;
  std::vector<AstQosBound> qos;
  std::vector<AstReplicaBound> replicas;
  std::vector<AstPlacement> placements;
  SourceLoc loc;
};

/// A named operating scenario: a description, the goals that must hold
/// during it, optional fault-scenario lines (FaultScenario text format) and
/// optional load-phase lines (scenario::LoadPhase text format) that the
/// campaign generator lowers into an arrival model.
struct AstScenario {
  std::string name;
  std::string description;
  std::vector<std::string> goals;
  std::vector<std::pair<std::string, SourceLoc>> faults;
  std::vector<std::pair<std::string, SourceLoc>> loads;
  std::int64_t duration_us = 0;
  SourceLoc loc;
};

// --- path properties -----------------------------------------------------------
//
// Temporal properties checked along reconfiguration paths (Hufflen-style):
// the explorer enumerates the configurations reachable by firing rules and
// checks each clause over that graph instead of over a single snapshot.
//
//   property resilience {
//     always replicas(Worker) >= 1;
//     always routed(jobs);
//     eventually running(worker, Worker);
//     reverts degrade;
//   }

/// One clause of a property block. `always` must hold in every reachable
/// configuration (including mid-firing intermediate states); `eventually`
/// requires a satisfying configuration to stay reliably reachable;
/// `reverts` requires every firing of the named rule to be reliably
/// undoable (the pre-firing configuration stays reachable).
struct AstPropertyClause {
  enum class Kind { kAlways, kEventually, kReverts };
  Kind kind = Kind::kAlways;
  AstPredicate pred;  // kAlways / kEventually
  std::string rule;   // kReverts: the rule whose effect must be revertible
  SourceLoc loc;
};

struct AstProperty {
  std::string name;
  std::vector<AstPropertyClause> clauses;
  SourceLoc loc;
};

/// A whole configuration unit.
struct Configuration {
  std::vector<AstInterface> interfaces;
  std::vector<AstComponent> components;
  std::vector<AstNode> nodes;
  std::vector<AstLink> links;
  std::vector<AstInstance> instances;
  std::vector<AstConnector> connectors;
  std::vector<AstBinding> bindings;
  std::vector<AstRule> rules;
  std::vector<AstGoal> goals;
  std::vector<AstScenario> scenarios;
  std::vector<AstProperty> properties;
};

}  // namespace aars::adl
