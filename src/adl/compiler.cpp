#include "adl/compiler.h"

#include <fstream>
#include <sstream>

#include "adl/parser.h"
#include "adl/sema.h"

namespace aars::adl {

namespace {

/// Emit stage: lowers the validated rule/goal/scenario AST into the
/// pre-resolved RuleProgram. Every name is interned to a util::Symbol here,
/// once, so nothing downstream ever hashes or parses it again.
RuleProgram emit_program(const Configuration& ast) {
  RuleProgram program;
  program.rules.reserve(ast.rules.size());
  for (std::size_t i = 0; i < ast.rules.size(); ++i) {
    const AstRule& rule = ast.rules[i];
    CompiledRule out;
    out.name = rule.name.empty()
                   ? util::Symbol("rule_" + std::to_string(i))
                   : util::Symbol(rule.name);
    out.cooldown_us = rule.cooldown_us;
    out.deadline_us = rule.deadline_us;
    out.line = rule.loc.line;
    out.column = rule.loc.column;
    const AstCondition& cond = rule.condition;
    out.condition.is_event = cond.is_event;
    out.condition.compare = cond.compare;
    out.condition.threshold = cond.threshold;
    out.condition.sustain_ticks = cond.sustain_ticks;
    if (cond.is_event) {
      out.condition.event = util::Symbol(cond.event);
    } else {
      out.condition.subject = util::Symbol(cond.metric_subject);
      out.condition.source = cond.metric == "queue_depth"
                                 ? MetricSource::kQueueDepth
                             : cond.metric == "backlog"
                                 ? MetricSource::kNodeBacklog
                                 : MetricSource::kFaultActive;
    }
    if (rule.guard.has_value()) out.guard = lower_predicate(*rule.guard);
    out.actions.reserve(rule.actions.size());
    for (const AstRuleAction& action : rule.actions) {
      CompiledAction lowered;
      switch (action.kind) {
        case AstRuleAction::Kind::kAdd: lowered.op = PlanOp::kAdd; break;
        case AstRuleAction::Kind::kRemove: lowered.op = PlanOp::kRemove; break;
        case AstRuleAction::Kind::kReplace:
          lowered.op = PlanOp::kReplace;
          break;
        case AstRuleAction::Kind::kMigrate:
          lowered.op = PlanOp::kMigrate;
          break;
        case AstRuleAction::Kind::kRebind: lowered.op = PlanOp::kRebind; break;
        case AstRuleAction::Kind::kReroute:
          lowered.op = PlanOp::kReroute;
          break;
        case AstRuleAction::Kind::kRedeployStranded:
          lowered.op = PlanOp::kRedeploy;
          break;
      }
      lowered.instance = util::Symbol(action.instance);
      lowered.type = util::Symbol(action.type);
      lowered.name = util::Symbol(action.name);
      lowered.node = util::Symbol(action.node);
      lowered.port = util::Symbol(action.port);
      lowered.connector = util::Symbol(action.connector);
      lowered.replica = util::Symbol(action.replica);
      out.actions.push_back(std::move(lowered));
    }
    program.rules.push_back(std::move(out));
  }

  program.goals.reserve(ast.goals.size());
  for (const AstGoal& goal : ast.goals) {
    CompiledGoal out;
    out.name = util::Symbol(goal.name);
    for (const AstQosBound& bound : goal.qos) {
      out.qos.push_back(CompiledGoal::Qos{util::Symbol(bound.connector),
                                          bound.upper, bound.latency_us});
    }
    for (const AstReplicaBound& bound : goal.replicas) {
      out.replicas.push_back(CompiledGoal::Replicas{
          util::Symbol(bound.type), bound.compare, bound.count});
    }
    for (const AstPlacement& placement : goal.placements) {
      out.placements.push_back(CompiledGoal::Placement{
          util::Symbol(placement.instance), util::Symbol(placement.node)});
    }
    program.goals.push_back(std::move(out));
  }

  program.scenarios.reserve(ast.scenarios.size());
  for (const AstScenario& scenario : ast.scenarios) {
    CompiledScenario out;
    out.name = util::Symbol(scenario.name);
    out.description = scenario.description;
    for (const std::string& goal : scenario.goals) {
      out.goals.push_back(util::Symbol(goal));
    }
    for (const auto& [fault, loc] : scenario.faults) {
      out.faults.push_back(fault);
    }
    for (const auto& [load, loc] : scenario.loads) {
      out.loads.push_back(load);
    }
    out.duration_us = scenario.duration_us;
    program.scenarios.push_back(std::move(out));
  }

  program.properties = lower_properties(ast);
  return program;
}

}  // namespace

CompilationResult compile(std::string_view source,
                          const CompileOptions& options) {
  CompilationResult result;
  result.source.assign(source);

  // Stage 1+2: lex + parse.
  Configuration ast = parse_ast(source, result.diagnostics);
  if (!result.diagnostics.ok()) return result;

  // Stage 3: sema — name resolution, typing, rule/goal/scenario checks.
  result.config = analyze(std::move(ast), result.diagnostics);
  if (!result.diagnostics.ok()) return result;

  // Stage 4: emit — lower rules into pre-resolved Symbol/table artifacts.
  result.program = emit_program(result.config.ast);

  // Stage 5 (optional): compile-time screening installed by higher layers.
  if (options.screen) options.screen(result);
  return result;
}

CompilationResult compile_file(const std::string& path,
                               const CompileOptions& options) {
  std::ifstream in(path);
  if (!in) {
    CompilationResult result;
    result.diagnostics.error(SourceLoc{}, "unreadable-file",
                             "cannot read '" + path + "'");
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return compile(buffer.str(), options);
}

}  // namespace aars::adl
