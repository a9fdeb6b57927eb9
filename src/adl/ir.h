// Typed intermediate representation — stage 3 of the compiler.
//
// Sema resolves the AST's names against each other and produces two
// artifacts: the CompiledConfiguration (topology IR the deployer consumes,
// unchanged shape since PR 2) and — via the emit stage — a RuleProgram in
// which every name that a firing rule would otherwise look up is
// pre-resolved to an interned util::Symbol or a dense index.  The runtime
// layer (`reconfig::RuleSet`) binds Symbols to live ids once at install
// time, so evaluating or firing a rule is table lookups only: no string
// parsing, no hashing, no allocation.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adl/ast.h"
#include "adl/diagnostics.h"
#include "component/interface.h"
#include "lts/lts.h"
#include "util/symbol.h"

namespace aars::adl {

/// Topology IR: the AST plus resolved interface descriptions and indices.
struct CompiledConfiguration {
  Configuration ast;
  std::map<std::string, component::InterfaceDescription> interfaces;
  /// instance name -> index in ast.instances
  std::map<std::string, std::size_t> instance_index;
  /// connector name -> index in ast.connectors
  std::map<std::string, std::size_t> connector_index;
  /// component type name -> compiled behavioural protocol, for components
  /// that declare a `protocol { ... }` block. Consumed by the static
  /// analyser (n-way composition deadlock checking).
  std::map<std::string, lts::Lts> protocols;
};

/// Where a compiled metric condition samples from. Enum dispatch — the
/// runtime switch-branches instead of matching metric names.
enum class MetricSource { kQueueDepth, kNodeBacklog, kFaultActive };

struct CompiledCondition {
  bool is_event = false;
  util::Symbol event;  // is_event: interned rule-engine event name
  MetricSource source = MetricSource::kQueueDepth;
  util::Symbol subject;  // connector / node the metric reads
  AstCompare compare = AstCompare::kGt;
  double threshold = 0.0;
  int sustain_ticks = 1;
};

/// One architecture mutation, mirroring the engine's change classes.  The
/// rule compiler emits kRedeploy only for `redeploy stranded`, which names
/// no target: the runtime expands it at firing time.  The analysis plan
/// model and reconfig::Txn share this enum.
enum class PlanOp {
  kAdd,       // new instance `instance` of `type` on `node`
  kRemove,    // remove `instance` (quiesce -> drain -> delete)
  kRebind,    // re-point `instance`.`port` to `connector`
  kReplace,   // swap `instance` to implementation `type` in place
  kMigrate,   // move `instance` to `node`
  kRedeploy,  // re-create failed `instance` on `node`
  kReroute,   // fail `instance` over to running `replica`
};

constexpr const char* to_string(PlanOp op) {
  switch (op) {
    case PlanOp::kAdd: return "add";
    case PlanOp::kRemove: return "remove";
    case PlanOp::kRebind: return "rebind";
    case PlanOp::kReplace: return "replace";
    case PlanOp::kMigrate: return "migrate";
    case PlanOp::kRedeploy: return "redeploy";
    case PlanOp::kReroute: return "reroute";
  }
  return "?";
}

struct CompiledAction {
  PlanOp op = PlanOp::kRemove;
  util::Symbol instance;   // target of every op except kAdd and kRedeploy
  util::Symbol type;       // kAdd / kReplace
  util::Symbol name;       // kAdd: new instance; kReplace: optional rename
  util::Symbol node;       // kAdd / kMigrate
  util::Symbol port;       // kRebind
  util::Symbol connector;  // kRebind
  util::Symbol replica;    // kReroute
};

/// Interned predicate-table entry: the explorer evaluates these against
/// every reached configuration without touching the AST or hashing names.
enum class PredicateKind { kExists, kRouted, kRunning, kReplicas };

struct CompiledPredicate {
  PredicateKind kind = PredicateKind::kExists;
  bool negated = false;
  /// kExists/kRunning: instance; kRouted: connector; kReplicas: type.
  util::Symbol subject;
  util::Symbol type;  // kRunning
  AstCompare compare = AstCompare::kGe;  // kReplicas
  int count = 0;                         // kReplicas
};

struct CompiledRule {
  util::Symbol name;
  CompiledCondition condition;
  /// `if` guard (kExists/kRunning only): the rule is enabled only while it
  /// holds.
  std::optional<CompiledPredicate> guard;
  std::vector<CompiledAction> actions;
  std::int64_t cooldown_us = 0;
  /// Whole-firing transactional deadline (0 = use the runtime default).
  std::int64_t deadline_us = 0;
  /// Source location of the `when` keyword — the explorer anchors
  /// counterexample diagnostics to the last rule of the firing sequence.
  int line = 0;
  int column = 0;
};

enum class PathPropertyKind { kAlways, kEventually, kReverts };

constexpr const char* to_string(PathPropertyKind k) {
  switch (k) {
    case PathPropertyKind::kAlways: return "always";
    case PathPropertyKind::kEventually: return "eventually";
    case PathPropertyKind::kReverts: return "reverts";
  }
  return "?";
}

/// One lowered property clause. The enclosing block's name is repeated on
/// each clause so a flat table is all the explorer ever walks.
struct CompiledPathProperty {
  util::Symbol property;  // enclosing `property <name>` block
  PathPropertyKind kind = PathPropertyKind::kAlways;
  CompiledPredicate pred;  // kAlways / kEventually
  util::Symbol rule;       // kReverts
  /// Clause source location, for counterexample diagnostics.
  int line = 0;
  int column = 0;
};

struct CompiledGoal {
  struct Qos {
    util::Symbol connector;
    bool upper = true;
    std::int64_t latency_us = 0;
  };
  struct Replicas {
    util::Symbol type;
    AstCompare compare = AstCompare::kGe;
    int count = 0;
  };
  struct Placement {
    util::Symbol instance;
    util::Symbol node;
  };
  util::Symbol name;
  std::vector<Qos> qos;
  std::vector<Replicas> replicas;
  std::vector<Placement> placements;
};

struct CompiledScenario {
  util::Symbol name;
  std::string description;
  std::vector<util::Symbol> goals;
  std::vector<std::string> faults;  // FaultScenario text lines
  std::vector<std::string> loads;   // scenario::LoadPhase text lines
  std::int64_t duration_us = 0;
};

/// Emitted reconfiguration artifacts: everything a runtime needs to install
/// ADL-declared adaptation behaviour without re-touching the source text.
struct RuleProgram {
  std::vector<CompiledRule> rules;
  std::vector<CompiledGoal> goals;
  std::vector<CompiledScenario> scenarios;
  std::vector<CompiledPathProperty> properties;
  bool empty() const {
    return rules.empty() && goals.empty() && scenarios.empty() &&
           properties.empty();
  }
};

/// Everything `adl::compile()` produces. `config`/`program` are only
/// meaningful when `ok()`.
struct CompilationResult {
  CompiledConfiguration config;
  RuleProgram program;
  Diagnostics diagnostics;
  /// Retained source text, so callers can render caret snippets
  /// (`render_text(diagnostics, file, source)`) without re-reading the
  /// file.
  std::string source;

  bool ok() const { return diagnostics.ok(); }
};

}  // namespace aars::adl
