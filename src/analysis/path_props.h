// Path properties over the reachable-configuration graph.
//
// Hufflen-style checking (PAPERS.md): instead of verifying one snapshot, the
// explorer enumerates the configurations reachable by firing compiled rules
// and this module evaluates ADL-declared temporal clauses over that graph —
// `always` on every reached state (settled and mid-firing), `eventually` as
// reliable re-reachability of a satisfying state, `reverts` as reliable
// undoability of a rule's effect.  "Reliable" edges are firings of rules
// with no cooldown: a cooldown-suppressed firing is dropped by the runtime,
// not queued, so liveness must never rest on it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "adl/ir.h"
#include "analysis/architecture.h"
#include "adl/diagnostics.h"

namespace aars::analysis {

/// One settled (post-commit) configuration discovered by the explorer.
struct ConfigState {
  ArchitectureModel model;
  /// Discovery-tree parent (npos for the initial state) — walking parents
  /// reconstructs a minimal rule-firing sequence to this state.
  std::size_t parent = static_cast<std::size_t>(-1);
  /// Index into the rule program of the firing that discovered this state.
  std::size_t via_rule = static_cast<std::size_t>(-1);
  std::size_t depth = 0;
};

/// One committed firing: rule `rule` maps configuration `from` to `to`.
struct ConfigEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t rule = 0;
};

/// The explored configuration graph. States are settled configurations in
/// BFS discovery order (state 0 = initial); edges are committed firings.
struct ConfigGraph {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<ConfigState> states;
  std::vector<ConfigEdge> edges;
  /// Per program rule: display name and whether its firings are reliable
  /// (cooldown-free — see the header comment).
  std::vector<std::string> rule_names;
  std::vector<bool> rule_reliable;
};

/// A mid-firing `always` violation: applying `rule`'s plan from settled
/// state `from_state` produced a transient configuration violating property
/// clause `property` after step `step` (0-based).  `rolled_back` marks
/// firings that subsequently aborted — the violating configuration is still
/// exposed while the transaction unwinds.
struct TransientViolation {
  std::size_t property = 0;
  std::size_t from_state = 0;
  std::size_t rule = 0;
  std::size_t step = 0;
  bool rolled_back = false;
  std::string diff;
};

/// Canonical identity of a configuration: a total-order string over the
/// mutable parts of the model (instances, connector provider sets, binding
/// provider sets).  Nodes, links and protocols are excluded — no rule op
/// mutates them, so they are constant along every path.  Two isomorphic
/// configurations (same content, any vector order) get the same key.
std::string canonical_config_key(const ArchitectureModel& model);

/// Builds canonical_config_key into buffers it keeps from call to call, so
/// keying a configuration no larger than one keyed before allocates
/// nothing.  The explorer keys every firing's successor with one.
class ConfigKeyBuilder {
 public:
  /// canonical_config_key(model), valid until the next call.
  const std::string& build(const ArchitectureModel& model);

 private:
  std::string buffer_;  // the parts, unsorted
  std::vector<std::size_t> ends_;
  std::vector<std::string_view> parts_;
  std::vector<std::string_view> providers_;  // one provider set, sorting
  std::string key_;
};

/// "ruleA -> ruleB" firing sequence from the initial state to `state`,
/// or "(initial)" for state 0.
std::string render_path(const ConfigGraph& graph, std::size_t state);

/// Human-readable one-line diff between two configurations (instances
/// added/removed/retyped/moved, provider-set changes).
std::string render_state_diff(const ArchitectureModel& before,
                              const ArchitectureModel& after);

/// Evaluates one lowered predicate against a configuration.
bool eval_predicate(const adl::CompiledPredicate& pred,
                    const ArchitectureModel& model);

/// "replicas(Worker) >= 1" rendering for diagnostics.
std::string to_string(const adl::CompiledPredicate& pred);

/// Checks every property clause over the explored graph, reporting
/// violations with minimal counterexample paths into `report`:
///   * always      — settled violations ("invariant-violated") plus the
///                   recorded transient violations ("transient-violation");
///   * eventually  — every state must reliably reach a satisfying state
///                   ("eventually-starved"); skipped when `truncated`;
///   * reverts     — every firing of the named rule must be reliably
///                   undoable ("revert-unreachable"); skipped when
///                   `truncated`.
void check_path_properties(
    const ConfigGraph& graph,
    const std::vector<adl::CompiledPathProperty>& properties,
    const std::vector<TransientViolation>& transients, bool truncated,
    adl::Diagnostics& report);

}  // namespace aars::analysis
