// Whole-architecture static verification.
//
// The paper's prospective vision rests on LTS-based correctness checking of
// dynamic architectures (§3); the runtime so far only checked *pairwise*
// connector compatibility at bind time.  This verifier checks the whole
// architecture before anything runs:
//
//   * dangling / duplicate / unbound bindings         (structural)
//   * components unreachable from any workload entry  (liveness of intent)
//   * call-graph cycles; all-synchronous cycles are
//     deadlocks and make quiescence unreachable       (behavioural)
//   * caller -> provider node routes must exist       (topological)
//   * declared QoS budgets vs. the topology's
//     path-latency lower bound                        (QoS feasibility)
//   * n-way composition deadlock-freedom of declared
//     component protocols, bounded exploration        (behavioural)
#pragma once

#include "analysis/architecture.h"
#include "adl/diagnostics.h"

namespace aars::analysis {

/// How verification gates mutation (reconfiguration engine, RAML repair).
enum class VerifyMode {
  kOff,      // no verification
  kWarn,     // verify, log + count findings, proceed anyway
  kEnforce,  // reject mutations whose plan fails verification
};

constexpr const char* to_string(VerifyMode m) {
  switch (m) {
    case VerifyMode::kOff: return "off";
    case VerifyMode::kWarn: return "warn";
    case VerifyMode::kEnforce: return "enforce";
  }
  return "?";
}

struct VerifierOptions {
  /// Joint-state bound for n-way protocol composition.
  std::size_t max_states = 100000;
  /// Set false to skip protocol composition (e.g. huge architectures).
  bool check_protocols = true;
};

/// Runs every whole-architecture check against the model.
adl::Diagnostics verify_architecture(const ArchitectureModel& model,
                                     const VerifierOptions& options = {});

/// Instances that can never reach a quiescence point: members of a call
/// cycle whose every edge is synchronous (in-flight work re-enters the
/// component, so block -> drain never completes).
std::vector<std::string> quiescence_unreachable(
    const ArchitectureModel& model);

}  // namespace aars::analysis
