#include "analysis/explorer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "analysis/adl_screen.h"
#include "analysis/plan.h"
#include "util/strings.h"

namespace aars::analysis {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t hash, const std::string& data) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  // Fold in a separator so concatenated keys cannot alias.
  hash ^= 0xFFu;
  hash *= kFnvPrime;
  return hash;
}

bool guard_holds(const adl::CompiledRule& rule,
                 const ArchitectureModel& model) {
  return !rule.guard.has_value() || eval_predicate(*rule.guard, model);
}

/// True when the rule's whole plan applies from `model` (used only to
/// decide whether a depth-capped state actually had unexplored firings).
bool fully_applicable(ArchitectureModel model, const Plan& plan) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!plan_step_applicable(model, plan[i], i)) return false;
    apply_plan_step(model, plan[i]);
  }
  return true;
}

}  // namespace

ExplorationResult explore(const ArchitectureModel& initial,
                          const adl::RuleProgram& program,
                          const ExplorerOptions& options) {
  ExplorationResult result;
  ConfigGraph& graph = result.graph;

  std::vector<Plan> plans;
  plans.reserve(program.rules.size());
  for (const adl::CompiledRule& rule : program.rules) {
    plans.push_back(plan_from(rule));
    graph.rule_names.push_back(rule.name.str());
    // A cooldown-suppressed firing is dropped by the runtime, not queued —
    // only cooldown-free rules are reliable transitions for liveness.
    graph.rule_reliable.push_back(rule.cooldown_us == 0);
  }

  std::vector<std::size_t> always_clauses;
  for (std::size_t pi = 0; pi < program.properties.size(); ++pi) {
    if (program.properties[pi].kind == adl::PathPropertyKind::kAlways) {
      always_clauses.push_back(pi);
    }
  }

  std::map<std::string, std::size_t> seen;
  graph.states.push_back(ConfigState{initial, ConfigGraph::npos,
                                     ConfigGraph::npos, 0});
  std::string initial_key = canonical_config_key(initial);
  result.order_digest = fnv1a(kFnvOffset, initial_key);
  seen.emplace(std::move(initial_key), 0);

  bool hit_config_cap = false;
  bool hit_depth_cap = false;
  std::deque<std::size_t> frontier{0};

  while (!frontier.empty() && !hit_config_cap) {
    const std::size_t s = frontier.front();
    frontier.pop_front();
    // Copy: graph.states reallocates as new configurations are appended.
    const ArchitectureModel source = graph.states[s].model;
    const std::size_t depth = graph.states[s].depth;

    if (depth >= options.max_depth) {
      // Only report truncation when a committed firing was actually cut
      // off — a leaf state with no enabled rules loses nothing.
      for (std::size_t r = 0; r < plans.size(); ++r) {
        if (guard_holds(program.rules[r], source) &&
            fully_applicable(source, plans[r])) {
          hit_depth_cap = true;
          break;
        }
      }
      continue;
    }

    // Every rule's step 0 reads the source state, so one stuck set serves
    // all of them; later steps read intermediate models and recompute it.
    const std::vector<std::string> source_stuck =
        quiescence_unreachable(source);
    for (std::size_t r = 0; r < plans.size() && !hit_config_cap; ++r) {
      const Plan& plan = plans[r];
      // A false guard disables the rule, as at runtime.  Then test step 0
      // on the source before paying for a copy of the model.
      if (!guard_holds(program.rules[r], source) ||
          (!plan.empty() && !plan_step_applicable(source, plan[0], 0, nullptr,
                                                  &source_stuck))) {
        continue;  // rule not enabled in this state
      }
      ArchitectureModel model = source;
      std::size_t applied = 0;
      std::vector<TransientViolation> pending;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        if (i > 0 && !plan_step_applicable(model, plan[i], i)) break;
        apply_plan_step(model, plan[i]);
        ++applied;
        // Mid-firing transient check: the runtime enacts plans step by
        // step, so every intermediate configuration is briefly live (and
        // stays exposed during a rollback).
        for (const std::size_t pi : always_clauses) {
          if (eval_predicate(program.properties[pi].pred, model)) continue;
          pending.push_back(TransientViolation{
              pi, s, r, i, false, render_state_diff(source, model)});
        }
      }

      if (applied < plan.size()) {
        // The runtime would abort here and roll back the applied prefix
        // (reconfig::Txn): no edge, but the transients were exposed.
        ++result.aborted_firings;
        for (TransientViolation& t : pending) t.rolled_back = true;
        result.transients.insert(result.transients.end(), pending.begin(),
                                 pending.end());
        continue;
      }

      // The final post-step configuration is the settled successor; its
      // `always` findings are the settled check's job, not a transient.
      pending.erase(std::remove_if(pending.begin(), pending.end(),
                                   [&](const TransientViolation& t) {
                                     return t.step == plan.size() - 1;
                                   }),
                    pending.end());
      result.transients.insert(result.transients.end(), pending.begin(),
                               pending.end());

      std::string key = canonical_config_key(model);
      auto it = seen.find(key);
      if (it != seen.end()) {
        graph.edges.push_back(ConfigEdge{s, it->second, r});
        continue;
      }
      if (graph.states.size() >= options.max_configs) {
        hit_config_cap = true;
        break;
      }
      const std::size_t to = graph.states.size();
      result.order_digest = fnv1a(result.order_digest, key);
      seen.emplace(std::move(key), to);
      graph.edges.push_back(ConfigEdge{s, to, r});
      graph.states.push_back(ConfigState{std::move(model), s, r, depth + 1});

      if (options.verify_states) {
        const adl::Diagnostics verdict =
            verify_architecture(graph.states[to].model, options.verifier);
        if (verdict.errors() > 0) {
          std::string message =
              "reachable configuration fails verification: " +
              verdict.first_error();
          if (verdict.errors() > 1) {
            message += util::format(" (and %zu more error(s))",
                                    verdict.errors() - 1);
          }
          message += "; diff vs initial: " +
                     render_state_diff(graph.states[0].model,
                                       graph.states[to].model);
          result.report.add(adl::Severity::kError, "unsafe-config",
                            render_path(graph, to), message,
                            program.rules[r].line, program.rules[r].column);
        }
      }
      frontier.push_back(to);
    }
  }

  result.transitions = graph.edges.size();

  const bool truncated = hit_config_cap || hit_depth_cap;
  if (truncated) {
    result.report.truncated = true;
    std::string bound =
        hit_config_cap
            ? util::format("configuration cap (%zu)", options.max_configs)
            : util::format("depth cap (%zu)", options.max_depth);
    result.report.add(
        adl::Severity::kWarning, "exploration-truncated", "",
        "exploration stopped at the " + bound + " after " +
            std::to_string(graph.states.size()) +
            " configuration(s): findings cover only the explored prefix, "
            "and liveness clauses (eventually/reverts) were skipped",
        0);
  }

  check_path_properties(graph, program.properties, result.transients,
                        truncated, result.report);
  return result;
}

}  // namespace aars::analysis
