// Bounded exploration of the reachable-configuration graph.
//
// The paper's prospective vision asks for correctness checking of *dynamic*
// architectures (§3). A compiled RuleProgram makes that tractable ahead of
// time: each rule's plan template is a transition function on the
// architecture model, so the set of configurations a running system can
// wander into is the closure of the initial configuration under rule
// firings.  The explorer breadth-first enumerates that closure (bounded by
// configuration count and firing depth), runs the whole-architecture
// verifier on every newly reached configuration, checks mid-firing
// transient states exactly as `reconfig::Txn` would expose them (a partial
// firing rolls back, but its intermediate configurations were real), and
// evaluates ADL-declared path properties over the resulting graph.
// Violations carry a minimal rule-firing counterexample path.
#pragma once

#include <cstdint>

#include "adl/ir.h"
#include "analysis/path_props.h"
#include "analysis/verifier.h"

namespace aars::analysis {

struct ExplorerOptions {
  /// Stop after discovering this many settled configurations.
  std::size_t max_configs = 4096;
  /// Stop expanding states this many firings away from the initial one.
  std::size_t max_depth = 64;
  /// Options for the per-state whole-architecture verifier.
  VerifierOptions verifier;
  /// Set false to skip per-state verification (property checks only).
  bool verify_states = true;
};

struct ExplorationResult {
  adl::Diagnostics report;
  ConfigGraph graph;
  /// Mid-firing transient states that violated an `always` clause.
  std::vector<TransientViolation> transients;
  /// Committed firings (graph edges).
  std::size_t transitions = 0;
  /// Firings that applied at least one step and then hit an inapplicable
  /// one — the runtime would roll these back mid-plan.
  std::size_t aborted_firings = 0;
  /// FNV-1a digest of the canonical state keys in discovery order; equal
  /// inputs must produce equal digests (reproducible exploration order).
  std::uint64_t order_digest = 0;
};

/// Explores the configuration graph reachable from `initial` under
/// `program`'s rules and checks `program`'s path properties plus (optional)
/// per-state structural/QoS verification. Never throws; all findings land
/// in `result.report`.
ExplorationResult explore(const ArchitectureModel& initial,
                          const adl::RuleProgram& program,
                          const ExplorerOptions& options = {});

}  // namespace aars::analysis
