#include "analysis/adl_screen.h"

#include "analysis/architecture.h"
#include "analysis/scenario_lint.h"
#include "util/strings.h"

namespace aars::analysis {

namespace {

/// Re-reports analyser findings at `loc`, prefixed with the construct they
/// came from. Info findings are dropped.
void forward(const adl::Diagnostics& report, const adl::SourceLoc& loc,
             const std::string& context, adl::CompilationResult& result) {
  for (const adl::Diagnostic& d : report.items) {
    if (d.severity == adl::Severity::kInfo) continue;
    result.diagnostics.add(
        d.severity, d.code, "",
        context + (d.subject.empty() ? "" : d.subject + ": ") + d.message,
        loc.line, loc.column);
  }
}

void screen_rules(const ArchitectureModel& model,
                  const VerifierOptions& options,
                  adl::CompilationResult& result) {
  for (std::size_t i = 0; i < result.program.rules.size(); ++i) {
    const adl::CompiledRule& rule = result.program.rules[i];
    const adl::SourceLoc loc = result.config.ast.rules[i].loc;
    const PlanReview review = verify_plan(model, plan_from(rule), options);
    forward(review.report, loc, "rule '" + rule.name.str() + "': ", result);
    // Deadline-guarded rules enact transactionally and may need rollback,
    // but `remove` is only weakly invertible: the forward protocol drops
    // the removed instance's held traffic, so undoing a later step cannot
    // restore it.  A final remove is fine — nothing after it can fail.
    if (rule.deadline_us > 0) {
      for (std::size_t a = 0; a + 1 < rule.actions.size(); ++a) {
        if (rule.actions[a].op != PlanOp::kRemove) continue;
        result.diagnostics.error(
            loc, "uninvertible-plan",
            "rule '" + rule.name.str() + "': 'remove " +
                rule.actions[a].instance.str() + "' before the end of a " +
                "deadline-guarded plan cannot be rolled back losslessly; " +
                "move it last or drop the deadline");
      }
    }
  }
}

void screen_goals(const ArchitectureModel& model,
                  adl::CompilationResult& result) {
  // A goal's latency upper bound is infeasible when it undercuts the
  // topology's round-trip floor for any binding through that connector —
  // no amount of runtime adaptation can beat the speed of the links.
  for (const adl::AstGoal& goal : result.config.ast.goals) {
    for (const adl::AstQosBound& bound : goal.qos) {
      if (!bound.upper || bound.latency_us <= 0) continue;
      for (const ModelBinding& bind : model.bindings) {
        if (bind.connector != bound.connector) continue;
        const ModelInstance* caller = model.find_instance(bind.caller);
        if (caller == nullptr) continue;
        for (const std::string& provider_name : bind.providers) {
          const ModelInstance* provider = model.find_instance(provider_name);
          if (provider == nullptr) continue;
          const auto there = model.min_latency_us(caller->node, provider->node);
          const auto back = model.min_latency_us(provider->node, caller->node);
          if (!there.has_value() || !back.has_value()) continue;
          const std::int64_t floor_us = *there + *back;
          if (floor_us > bound.latency_us) {
            result.diagnostics.error(
                bound.loc, "goal-infeasible",
                util::format("goal '%s': latency bound %lldus on '%s' is "
                             "below the topology's round-trip floor %lldus",
                             goal.name.c_str(),
                             static_cast<long long>(bound.latency_us),
                             bound.connector.c_str(),
                             static_cast<long long>(floor_us)));
          }
        }
      }
    }
  }
}

void screen_scenarios(const ArchitectureModel& model,
                      adl::CompilationResult& result) {
  for (const adl::AstScenario& scenario : result.config.ast.scenarios) {
    for (const auto& [fault, loc] : scenario.faults) {
      const adl::Diagnostics report = lint_scenario(fault, model);
      forward(report, loc, "scenario '" + scenario.name + "': ", result);
    }
  }
}

}  // namespace

Plan plan_from(const adl::CompiledRule& rule) {
  Plan plan;
  plan.reserve(rule.actions.size());
  for (const adl::CompiledAction& action : rule.actions) {
    PlanStep step;
    step.op = action.op;
    // kAdd names the new instance via `name`; every other op targets an
    // existing `instance`.
    step.instance = action.op == PlanOp::kAdd ? action.name.str()
                                              : action.instance.str();
    step.type = action.type.str();
    step.node = action.node.str();
    step.port = action.port.str();
    step.connector = action.connector.str();
    step.replica = action.replica.str();
    plan.push_back(std::move(step));
  }
  return plan;
}

adl::CompileOptions::Screen make_compile_screen(VerifierOptions options) {
  return [options](adl::CompilationResult& result) {
    if (result.program.empty()) return;
    const ArchitectureModel model = model_from(result.config);
    screen_rules(model, options, result);
    screen_goals(model, result);
    screen_scenarios(model, result);
  };
}

adl::CompilationResult compile_adl(std::string_view source,
                                   VerifierOptions options) {
  adl::CompileOptions compile_options;
  compile_options.screen = make_compile_screen(options);
  return adl::compile(source, compile_options);
}

adl::CompilationResult compile_adl_file(const std::string& path,
                                        VerifierOptions options) {
  adl::CompileOptions compile_options;
  compile_options.screen = make_compile_screen(options);
  return adl::compile_file(path, compile_options);
}

}  // namespace aars::analysis
