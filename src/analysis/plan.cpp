#include "analysis/plan.h"

#include <algorithm>

#include "util/strings.h"

namespace aars::analysis {

namespace {

void step_error(adl::Diagnostics& report, std::size_t index,
                const PlanStep& step, const std::string& message) {
  report.add(adl::Severity::kError, "plan-invalid",
             util::format("step %zu (%s %s)", index + 1, to_string(step.op),
                          step.instance.c_str()),
             message, 0);
}

/// Ops that quiesce their target before acting.
bool quiesces_target(PlanOp op) {
  switch (op) {
    case PlanOp::kRemove:
    case PlanOp::kReplace:
    case PlanOp::kMigrate:
      return true;
    // kRedeploy / kReroute act on an already-failed instance — there is
    // nothing left to quiesce; kAdd / kRebind are atomic.
    default:
      return false;
  }
}

void erase_instance(ArchitectureModel& model, const std::string& name) {
  model.instances.erase(
      std::remove_if(model.instances.begin(), model.instances.end(),
                     [&](const ModelInstance& i) { return i.name == name; }),
      model.instances.end());
  model.bindings.erase(
      std::remove_if(model.bindings.begin(), model.bindings.end(),
                     [&](const ModelBinding& b) { return b.caller == name; }),
      model.bindings.end());
  for (ModelConnector& conn : model.connectors) {
    conn.providers.erase(
        std::remove(conn.providers.begin(), conn.providers.end(), name),
        conn.providers.end());
  }
  for (ModelBinding& bind : model.bindings) {
    bind.providers.erase(
        std::remove(bind.providers.begin(), bind.providers.end(), name),
        bind.providers.end());
  }
}

void substitute_provider(ArchitectureModel& model, const std::string& from,
                         const std::string& to) {
  const auto swap_in = [&](std::vector<std::string>& providers) {
    for (std::string& p : providers) {
      if (p == from) p = to;
    }
    // Collapse duplicates the substitution may have produced.
    std::vector<std::string> unique;
    for (const std::string& p : providers) {
      if (std::find(unique.begin(), unique.end(), p) == unique.end()) {
        unique.push_back(p);
      }
    }
    providers = std::move(unique);
  };
  for (ModelConnector& conn : model.connectors) swap_in(conn.providers);
  for (ModelBinding& bind : model.bindings) swap_in(bind.providers);
}

}  // namespace

void apply_plan_step(ArchitectureModel& model, const PlanStep& step) {
  switch (step.op) {
    case PlanOp::kAdd: {
      ModelInstance inst;
      inst.name = step.instance;
      inst.type = step.type;
      inst.node = step.node;
      model.instances.push_back(std::move(inst));
      break;
    }
    case PlanOp::kRemove:
      erase_instance(model, step.instance);
      break;
    case PlanOp::kRebind: {
      const ModelConnector* conn = model.find_connector(step.connector);
      bool found = false;
      for (ModelBinding& bind : model.bindings) {
        if (bind.caller == step.instance && bind.port == step.port) {
          bind.connector = step.connector;
          bind.providers = conn->providers;
          found = true;
        }
      }
      if (!found) {
        ModelBinding bind;
        bind.caller = step.instance;
        bind.port = step.port;
        bind.connector = step.connector;
        bind.providers = conn->providers;
        model.bindings.push_back(std::move(bind));
      }
      break;
    }
    case PlanOp::kReplace:
      model.find_instance(step.instance)->type = step.type;
      break;
    case PlanOp::kMigrate:
    case PlanOp::kRedeploy:
      model.find_instance(step.instance)->node = step.node;
      break;
    case PlanOp::kReroute:
      substitute_provider(model, step.instance, step.replica);
      erase_instance(model, step.instance);
      break;
  }
}

bool plan_step_applicable(const ArchitectureModel& model, const PlanStep& step,
                          std::size_t index, adl::Diagnostics* report,
                          const std::vector<std::string>* stuck) {
  // Precondition failures short-circuit on the first violation when no
  // report is wanted — the explorer probes enabledness in a hot loop.
  adl::Diagnostics scratch;
  adl::Diagnostics& out = report != nullptr ? *report : scratch;
  bool ok = true;
  const ModelInstance* target = model.find_instance(step.instance);

  if (step.op == PlanOp::kAdd) {
    if (target != nullptr) {
      step_error(out, index, step,
                 "instance '" + step.instance + "' already exists");
      ok = false;
    }
    if (!step.node.empty() && !model.has_node(step.node)) {
      step_error(out, index, step,
                 "destination node '" + step.node + "' does not exist");
      ok = false;
    }
  } else if (target == nullptr) {
    step_error(out, index, step,
               "instance '" + step.instance + "' does not exist");
    ok = false;
  }
  if (!ok && report == nullptr) return false;

  if (ok && (step.op == PlanOp::kMigrate || step.op == PlanOp::kRedeploy) &&
      !model.has_node(step.node)) {
    step_error(out, index, step,
               "destination node '" + step.node + "' does not exist");
    ok = false;
  }
  if (ok && step.op == PlanOp::kRebind &&
      model.find_connector(step.connector) == nullptr) {
    step_error(out, index, step,
               "connector '" + step.connector + "' does not exist");
    ok = false;
  }
  if (ok && step.op == PlanOp::kReroute) {
    const ModelInstance* replica = model.find_instance(step.replica);
    if (replica == nullptr) {
      step_error(out, index, step,
                 "replica '" + step.replica + "' does not exist");
      ok = false;
    } else if (target != nullptr && replica->type != target->type) {
      step_error(out, index, step,
                 "replica '" + step.replica + "' has type '" + replica->type +
                     "', expected '" + target->type + "'");
      ok = false;
    }
  }

  if (ok && quiesces_target(step.op)) {
    std::vector<std::string> computed;
    if (stuck == nullptr) {
      computed = quiescence_unreachable(model);
      stuck = &computed;
    }
    if (std::binary_search(stuck->begin(), stuck->end(), step.instance)) {
      out.add(
          adl::Severity::kError, "quiescence-unreachable",
          util::format("step %zu (%s %s)", index + 1, to_string(step.op),
                       step.instance.c_str()),
          "target sits on an all-synchronous call cycle; block -> drain "
          "can never complete, so the protocol would hang until timeout",
          0);
      ok = false;
    }
  }
  return ok;
}

PlanReview verify_plan(const ArchitectureModel& current, const Plan& plan,
                       const VerifierOptions& options) {
  PlanReview review;
  review.post_state = current;
  ArchitectureModel& model = review.post_state;

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlanStep& step = plan[i];
    if (plan_step_applicable(model, step, i, &review.report)) {
      apply_plan_step(model, step);
    }
  }

  review.report.merge(verify_architecture(model, options));
  return review;
}

CrossShardReview verify_cross_shard_migration(
    const ArchitectureModel& source_model,
    const ArchitectureModel& target_model, const std::string& instance,
    const std::string& type, const std::string& node,
    const VerifierOptions& options) {
  CrossShardReview review;
  PlanStep remove;
  remove.op = PlanOp::kRemove;
  remove.instance = instance;
  review.source = verify_plan(source_model, Plan{remove}, options);

  PlanStep add;
  add.op = PlanOp::kAdd;
  add.instance = instance;
  add.type = type;
  add.node = node;
  review.target = verify_plan(target_model, Plan{add}, options);
  return review;
}

}  // namespace aars::analysis
