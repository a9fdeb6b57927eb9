// Static verification of reconfiguration plans.
//
// Before the engine mutates a running system, the proposed change is
// expressed as a plan over the architecture model, applied to a *copy* of
// the current state, and the post-state is run through the whole-
// architecture verifier.  Ops that quiesce their target additionally prove
// quiescence is reachable (the target is not trapped in an all-synchronous
// call cycle).  The engine consults this in warn/enforce mode; RAML repair
// rules use it to discard candidate repairs that would not verify.
#pragma once

#include "analysis/architecture.h"
#include "analysis/verifier.h"

namespace aars::analysis {

using adl::PlanOp;

struct PlanStep {
  PlanOp op = PlanOp::kAdd;
  /// The target instance of every op.
  std::string instance;
  /// kAdd / kReplace: the (new) component type.
  std::string type;
  /// kAdd / kMigrate / kRedeploy: the destination node.
  std::string node;
  /// kRebind: the required port being re-pointed.
  std::string port;
  /// kRebind: the connector it now goes through.
  std::string connector;
  /// kReroute: the already-running replica taking over.
  std::string replica;
};

using Plan = std::vector<PlanStep>;

/// Outcome of verifying a plan against a current architecture.
struct PlanReview {
  /// Step preconditions + post-state verification findings.
  adl::Diagnostics report;
  /// The model after all applicable steps (even when verification fails,
  /// for inspection).
  ArchitectureModel post_state;
  /// No errors anywhere: the plan may run.
  bool ok() const { return report.errors() == 0; }
};

/// Checks one step's preconditions against `model` (targets exist,
/// destinations exist, quiescing targets can actually quiesce) without
/// mutating anything. When `report` is non-null, each violated precondition
/// is recorded as a "plan-invalid"/"quiescence-unreachable" error with the
/// step labelled `index` + 1. The configuration-space explorer uses this to
/// decide whether a rule's plan template is enabled in a given state.
/// `stuck`, when non-null, must be `quiescence_unreachable(model)`: callers
/// probing many steps against one model compute it once and pass it in.
bool plan_step_applicable(const ArchitectureModel& model, const PlanStep& step,
                          std::size_t index = 0,
                          adl::Diagnostics* report = nullptr,
                          const std::vector<std::string>* stuck = nullptr);

/// Applies one step whose preconditions already passed (see
/// `plan_step_applicable`). Mutates `model` in place.
void apply_plan_step(ArchitectureModel& model, const PlanStep& step);

/// Applies `plan` to `current` step by step, checking each step's
/// preconditions (targets exist, destinations exist, quiescing targets can
/// actually quiesce), then verifies the post-state architecture.  Takes the
/// model by value: a caller done with its snapshot moves it in, and one
/// that keeps it passes a copy.
PlanReview verify_plan(ArchitectureModel current, const Plan& plan,
                       const VerifierOptions& options = {});

/// Outcome of screening a cross-shard migration: the instance leaves the
/// source shard's architecture (kRemove) and appears in the target
/// shard's (kAdd on `node` as `type`).  Each side's post-state must
/// verify on its own — the two worlds share nothing but the migrating
/// instance.
struct CrossShardReview {
  PlanReview source;
  PlanReview target;
  bool ok() const { return source.ok() && target.ok(); }
};

CrossShardReview verify_cross_shard_migration(
    const ArchitectureModel& source_model,
    const ArchitectureModel& target_model, const std::string& instance,
    const std::string& type, const std::string& node,
    const VerifierOptions& options = {});

}  // namespace aars::analysis
