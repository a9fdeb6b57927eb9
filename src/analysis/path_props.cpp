#include "analysis/path_props.h"

#include <algorithm>
#include <deque>
#include <string_view>

#include "util/strings.h"

namespace aars::analysis {

namespace {

/// Appends the sorted provider list rendered "[a,b,c]".
void append_provider_set(std::string& out,
                         const std::vector<std::string>& providers) {
  std::vector<std::string_view> sorted(providers.begin(), providers.end());
  std::sort(sorted.begin(), sorted.end());
  out += '[';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i];
  }
  out += ']';
}

std::string provider_set(const std::vector<std::string>& providers) {
  std::string out;
  append_provider_set(out, providers);
  return out;
}

bool compare_count(adl::AstCompare cmp, int actual, int bound) {
  switch (cmp) {
    case adl::AstCompare::kLt: return actual < bound;
    case adl::AstCompare::kLe: return actual <= bound;
    case adl::AstCompare::kGt: return actual > bound;
    case adl::AstCompare::kGe: return actual >= bound;
    case adl::AstCompare::kEq: return actual == bound;
    case adl::AstCompare::kNe: return actual != bound;
  }
  return false;
}

/// States reliably reachable from `start` (committed firings of
/// cooldown-free rules only), including `start` itself.
std::vector<bool> reliable_reachable_from(const ConfigGraph& graph,
                                          std::size_t start) {
  std::vector<bool> reached(graph.states.size(), false);
  std::deque<std::size_t> frontier{start};
  reached[start] = true;
  while (!frontier.empty()) {
    const std::size_t s = frontier.front();
    frontier.pop_front();
    for (const ConfigEdge& edge : graph.edges) {
      if (edge.from != s || !graph.rule_reliable[edge.rule]) continue;
      if (!reached[edge.to]) {
        reached[edge.to] = true;
        frontier.push_back(edge.to);
      }
    }
  }
  return reached;
}

/// States from which some state in `targets` is reliably reachable
/// (backward closure over reliable edges; targets count as covered).
std::vector<bool> reliably_covered(const ConfigGraph& graph,
                                   const std::vector<bool>& targets) {
  std::vector<bool> covered = targets;
  std::deque<std::size_t> frontier;
  for (std::size_t s = 0; s < covered.size(); ++s) {
    if (covered[s]) frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const std::size_t s = frontier.front();
    frontier.pop_front();
    for (const ConfigEdge& edge : graph.edges) {
      if (edge.to != s || !graph.rule_reliable[edge.rule]) continue;
      if (!covered[edge.from]) {
        covered[edge.from] = true;
        frontier.push_back(edge.from);
      }
    }
  }
  return covered;
}

std::string cooldown_rule_names(const ConfigGraph& graph) {
  std::vector<std::string> names;
  for (std::size_t r = 0; r < graph.rule_names.size(); ++r) {
    if (!graph.rule_reliable[r]) names.push_back("'" + graph.rule_names[r] +
                                                 "'");
  }
  return util::join(names, ", ");
}

}  // namespace

std::string canonical_config_key(const ArchitectureModel& model) {
  // Every part goes into one buffer; the parts are sorted as views into it
  // and joined with ';'.
  std::string buffer;
  std::vector<std::size_t> ends;
  ends.reserve(model.instances.size() + model.connectors.size() +
               model.bindings.size());
  for (const ModelInstance& inst : model.instances) {
    buffer.append("i:").append(inst.name).append(":").append(inst.type);
    buffer.append("@").append(inst.node);
    ends.push_back(buffer.size());
  }
  for (const ModelConnector& conn : model.connectors) {
    buffer.append("c:").append(conn.name);
    append_provider_set(buffer, conn.providers);
    ends.push_back(buffer.size());
  }
  for (const ModelBinding& bind : model.bindings) {
    buffer.append("b:").append(bind.caller).append(".").append(bind.port);
    buffer.append(">").append(bind.connector);
    append_provider_set(buffer, bind.providers);
    ends.push_back(buffer.size());
  }
  std::vector<std::string_view> parts;
  parts.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    parts.push_back(std::string_view(buffer).substr(begin, end - begin));
    begin = end;
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  key.reserve(buffer.size() + parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) key += ';';
    key += parts[i];
  }
  return key;
}

std::string render_path(const ConfigGraph& graph, std::size_t state) {
  if (state == 0) return "(initial)";
  std::vector<std::string> firings;
  for (std::size_t s = state; s != ConfigGraph::npos && s != 0;
       s = graph.states[s].parent) {
    firings.push_back(graph.rule_names[graph.states[s].via_rule]);
  }
  std::reverse(firings.begin(), firings.end());
  return util::join(firings, " -> ");
}

std::string render_state_diff(const ArchitectureModel& before,
                              const ArchitectureModel& after) {
  std::vector<std::string> changes;
  for (const ModelInstance& inst : before.instances) {
    const ModelInstance* now = after.find_instance(inst.name);
    if (now == nullptr) {
      changes.push_back("-" + inst.name + ":" + inst.type + "@" + inst.node);
    } else {
      if (now->type != inst.type) {
        changes.push_back(inst.name + " type " + inst.type + "->" +
                          now->type);
      }
      if (now->node != inst.node) {
        changes.push_back(inst.name + " node " + inst.node + "->" +
                          now->node);
      }
    }
  }
  for (const ModelInstance& inst : after.instances) {
    if (before.find_instance(inst.name) == nullptr) {
      changes.push_back("+" + inst.name + ":" + inst.type + "@" + inst.node);
    }
  }
  for (const ModelConnector& conn : before.connectors) {
    const ModelConnector* now = after.find_connector(conn.name);
    if (now == nullptr) continue;
    const std::string was = provider_set(conn.providers);
    const std::string is = provider_set(now->providers);
    if (was != is) {
      changes.push_back(conn.name + " providers " + was + "->" + is);
    }
  }
  for (const ModelBinding& bind : before.bindings) {
    for (const ModelBinding& now : after.bindings) {
      if (now.caller != bind.caller || now.port != bind.port) continue;
      const std::string was = provider_set(bind.providers);
      const std::string is = provider_set(now.providers);
      if (was != is) {
        changes.push_back(bind.caller + "." + bind.port + " providers " +
                          was + "->" + is);
      }
      break;
    }
  }
  std::sort(changes.begin(), changes.end());
  return changes.empty() ? "(no structural change)"
                         : util::join(changes, ", ");
}

bool eval_predicate(const adl::CompiledPredicate& pred,
                    const ArchitectureModel& model) {
  bool value = false;
  switch (pred.kind) {
    case adl::PredicateKind::kExists:
      value = model.find_instance(pred.subject.str()) != nullptr;
      break;
    case adl::PredicateKind::kRunning: {
      const ModelInstance* inst = model.find_instance(pred.subject.str());
      value = inst != nullptr && inst->type == pred.type.str();
      break;
    }
    case adl::PredicateKind::kReplicas: {
      int n = 0;
      for (const ModelInstance& inst : model.instances) {
        if (inst.type == pred.subject.str()) ++n;
      }
      value = compare_count(pred.compare, n, pred.count);
      break;
    }
    case adl::PredicateKind::kRouted: {
      // Every binding through the connector must keep at least one provider
      // with a feasible round-trip route (within the declared budget, when
      // one is set). Vacuously true when nothing is bound through it.
      const ModelConnector* conn = model.find_connector(pred.subject.str());
      const std::int64_t budget = conn != nullptr ? conn->budget_us : 0;
      RouteSearch routes(model);
      value = true;
      for (const ModelBinding& bind : model.bindings) {
        if (bind.connector != pred.subject.str()) continue;
        const ModelInstance* caller = model.find_instance(bind.caller);
        if (caller == nullptr) continue;
        bool any_route = false;
        for (const std::string& provider_name : bind.providers) {
          const ModelInstance* provider = model.find_instance(provider_name);
          if (provider == nullptr) continue;
          const auto there =
              routes.min_latency_us(caller->node, provider->node);
          const auto back =
              routes.min_latency_us(provider->node, caller->node);
          if (!there.has_value() || !back.has_value()) continue;
          if (budget > 0 && *there + *back > budget) continue;
          any_route = true;
          break;
        }
        if (!any_route) {
          value = false;
          break;
        }
      }
      break;
    }
  }
  return pred.negated ? !value : value;
}

std::string to_string(const adl::CompiledPredicate& pred) {
  std::string out = pred.negated ? "not " : "";
  switch (pred.kind) {
    case adl::PredicateKind::kExists:
      out += "exists(" + pred.subject.str() + ")";
      break;
    case adl::PredicateKind::kRouted:
      out += "routed(" + pred.subject.str() + ")";
      break;
    case adl::PredicateKind::kRunning:
      out += "running(" + pred.subject.str() + ", " + pred.type.str() + ")";
      break;
    case adl::PredicateKind::kReplicas:
      out += "replicas(" + pred.subject.str() + ") " +
             std::string(adl::to_string(pred.compare)) + " " +
             std::to_string(pred.count);
      break;
  }
  return out;
}

void check_path_properties(
    const ConfigGraph& graph,
    const std::vector<adl::CompiledPathProperty>& properties,
    const std::vector<TransientViolation>& transients, bool truncated,
    adl::Diagnostics& report) {
  for (std::size_t pi = 0; pi < properties.size(); ++pi) {
    const adl::CompiledPathProperty& prop = properties[pi];
    const std::string label =
        "property '" + prop.property.str() + "'";

    if (prop.kind == adl::PathPropertyKind::kAlways) {
      // Candidate witnesses: the first settled state violating the clause
      // (states are in BFS order, so first = minimal firing sequence) and
      // the shallowest recorded transient. A settled witness at the same
      // depth wins — it persists, the transient is only exposed mid-firing.
      std::size_t settled = ConfigGraph::npos;
      for (std::size_t s = 0; s < graph.states.size(); ++s) {
        if (!eval_predicate(prop.pred, graph.states[s].model)) {
          settled = s;
          break;
        }
      }
      const TransientViolation* transient = nullptr;
      for (const TransientViolation& t : transients) {
        if (t.property != pi) continue;
        if (transient == nullptr ||
            graph.states[t.from_state].depth + 1 <
                graph.states[transient->from_state].depth + 1) {
          transient = &t;
        }
      }
      const std::size_t settled_depth =
          settled == ConfigGraph::npos
              ? static_cast<std::size_t>(-1)
              : graph.states[settled].depth;
      if (settled != ConfigGraph::npos &&
          (transient == nullptr ||
           settled_depth <= graph.states[transient->from_state].depth + 1)) {
        report.add(
            adl::Severity::kError, "invariant-violated",
            render_path(graph, settled),
            label + ": 'always " + to_string(prop.pred) +
                "' is violated in a reachable configuration; diff vs " +
                "initial: " +
                render_state_diff(graph.states[0].model,
                                  graph.states[settled].model),
            prop.line, prop.column);
      } else if (transient != nullptr) {
        const std::string path = render_path(graph, transient->from_state);
        report.add(
            adl::Severity::kError, "transient-violation",
            (transient->from_state == 0 ? std::string()
                                        : path + " -> ") +
                graph.rule_names[transient->rule],
            label + ": 'always " + to_string(prop.pred) +
                "' is violated mid-firing of rule '" +
                graph.rule_names[transient->rule] + "' after step " +
                std::to_string(transient->step + 1) +
                (transient->rolled_back
                     ? " (the firing then aborts and rolls back, but the "
                       "violating configuration is exposed while the "
                       "transaction unwinds)"
                     : "") +
                "; diff vs pre-firing state: " + transient->diff,
            prop.line, prop.column);
      }
      continue;
    }

    // Liveness clauses are only sound over the full graph: a truncated
    // exploration may be missing exactly the edges that satisfy them.
    if (truncated) continue;

    if (prop.kind == adl::PathPropertyKind::kEventually) {
      std::vector<bool> satisfying(graph.states.size(), false);
      bool any = false;
      for (std::size_t s = 0; s < graph.states.size(); ++s) {
        satisfying[s] = eval_predicate(prop.pred, graph.states[s].model);
        any = any || satisfying[s];
      }
      if (!any) {
        report.add(adl::Severity::kError, "eventually-starved", "(initial)",
                   label + ": 'eventually " + to_string(prop.pred) +
                       "' — no reachable configuration satisfies the " +
                       "predicate",
                   prop.line, prop.column);
        continue;
      }
      const std::vector<bool> covered = reliably_covered(graph, satisfying);
      for (std::size_t s = 0; s < covered.size(); ++s) {
        if (covered[s]) continue;
        const std::string cooldowns = cooldown_rule_names(graph);
        report.add(
            adl::Severity::kError, "eventually-starved", render_path(graph, s),
            label + ": 'eventually " + to_string(prop.pred) +
                "' starves: from this configuration no cooldown-free rule " +
                "sequence reaches a satisfying configuration" +
                (cooldowns.empty()
                     ? ""
                     : " (rule(s) " + cooldowns +
                           " carry a cooldown, and a firing suppressed by "
                           "its cooldown is dropped, not queued)"),
            prop.line, prop.column);
        break;  // minimal witness only — states are in BFS order
      }
      continue;
    }

    // kReverts: every committed firing of the named rule must leave the
    // pre-firing configuration reliably re-reachable.
    for (const ConfigEdge& edge : graph.edges) {
      if (graph.rule_names[edge.rule] != prop.rule.str()) continue;
      const std::vector<bool> reached =
          reliable_reachable_from(graph, edge.to);
      if (reached[edge.from]) continue;
      const std::string path = render_path(graph, edge.from);
      report.add(
          adl::Severity::kError, "revert-unreachable",
          (edge.from == 0 ? std::string() : path + " -> ") +
              graph.rule_names[edge.rule],
          label + ": 'reverts " + prop.rule.str() +
              "' fails: after this firing the pre-firing configuration is " +
              "not re-reachable via cooldown-free rules" +
              (cooldown_rule_names(graph).empty()
                   ? ""
                   : " (rule(s) " + cooldown_rule_names(graph) +
                         " carry a cooldown, and a firing suppressed by its "
                         "cooldown is dropped, not queued)"),
          prop.line, prop.column);
      break;  // minimal witness only — edges are in discovery order
    }
  }
}

}  // namespace aars::analysis
