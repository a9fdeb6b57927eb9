#include "analysis/verifier.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string_view>

#include "util/strings.h"

namespace aars::analysis {

namespace {

/// The call graph of one model, built once per verification pass.  Nodes
/// are the instances plus any binding caller that is not an instance, in
/// name order; each node's edges follow binding order, then provider order,
/// and sit in one edge array at the node's offset.  An edge to a provider
/// that is no node (a dangling provider) has `to` -1.
struct CallGraph {
  struct Edge {
    int to = -1;
    bool sync = true;
  };
  std::vector<std::string_view> names;
  /// Node n's edges are edges[first[n] .. first[n + 1]).
  std::vector<std::uint32_t> first;
  std::vector<Edge> edges;

  explicit CallGraph(const ArchitectureModel& model) {
    names.reserve(model.instances.size() + model.bindings.size());
    for (const ModelInstance& inst : model.instances) {
      names.push_back(inst.name);
    }
    for (const ModelBinding& bind : model.bindings) {
      names.push_back(bind.caller);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    // Count each caller's edges, turn the counts into end offsets, then
    // place the bindings back to front so each node keeps binding, then
    // provider, order; each offset ends at its node's start.
    first.assign(names.size() + 1, 0);
    for (const ModelBinding& bind : model.bindings) {
      first[index_of(bind.caller)] +=
          static_cast<std::uint32_t>(bind.providers.size());
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    edges.resize(first.back());
    for (auto bind = model.bindings.rbegin(); bind != model.bindings.rend();
         ++bind) {
      const ModelConnector* conn = model.find_connector(bind->connector);
      const bool sync = conn == nullptr || conn->sync_delivery;
      std::uint32_t& slot = first[index_of(bind->caller)];
      for (auto provider = bind->providers.rbegin();
           provider != bind->providers.rend(); ++provider) {
        edges[--slot] = Edge{index_of(*provider), sync};
      }
    }
  }

  std::span<const Edge> out(int node) const {
    return {edges.data() + first[node], edges.data() + first[node + 1]};
  }

  /// Node index of `name`, or -1 when it names no node.
  int index_of(std::string_view name) const {
    const auto it = std::lower_bound(names.begin(), names.end(), name);
    return it != names.end() && *it == name
               ? static_cast<int>(it - names.begin())
               : -1;
  }
};

/// Call cycles — nontrivial SCCs (size > 1 or a self-loop), optionally over
/// sync edges only — in the order Tarjan completes them, roots visited in
/// name order. Members are sorted, i.e. in name order.
std::vector<std::vector<int>> call_cycles(const CallGraph& graph,
                                          bool sync_only) {
  const auto followed = [sync_only](const CallGraph::Edge& edge) {
    return edge.to >= 0 && (edge.sync || !sync_only);
  };
  const std::size_t n = graph.names.size();
  struct Visit {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };
  std::vector<Visit> visits(n);
  std::vector<int> stack;
  stack.reserve(n);
  std::vector<std::vector<int>> cycles;
  int next_index = 0;

  // Iterative Tarjan (explicit frames) to stay safe on deep graphs.
  struct Frame {
    int node;
    std::size_t edge = 0;
  };
  std::vector<Frame> frames;
  frames.reserve(n);
  const auto visit = [&](int node) {
    visits[node] = Visit{next_index, next_index, true};
    ++next_index;
    stack.push_back(node);
    frames.push_back(Frame{node});
  };
  for (int root = 0; root < static_cast<int>(n); ++root) {
    if (visits[root].index >= 0) continue;
    visit(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::span<const CallGraph::Edge> edges = graph.out(frame.node);
      Visit& at = visits[frame.node];
      bool descended = false;
      while (frame.edge < edges.size()) {
        const CallGraph::Edge& edge = edges[frame.edge++];
        if (!followed(edge)) continue;
        if (visits[edge.to].index < 0) {
          visit(edge.to);
          descended = true;
          break;
        }
        if (visits[edge.to].on_stack) {
          at.lowlink = std::min(at.lowlink, visits[edge.to].index);
        }
      }
      if (descended) continue;
      // Frame exhausted: pop and propagate the lowlink.
      const int node = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        int& parent = visits[frames.back().node].lowlink;
        parent = std::min(parent, at.lowlink);
      }
      if (at.lowlink != at.index) continue;
      // `node` roots an SCC: its members sit on the stack from `node` up.
      auto first = stack.end();
      do {
        --first;
        visits[*first].on_stack = false;
      } while (*first != node);
      const std::span<const CallGraph::Edge> out = graph.out(node);
      const bool cyclic =
          stack.end() - first > 1 ||
          std::any_of(out.begin(), out.end(), [&](const CallGraph::Edge& e) {
            return e.to == node && followed(e);
          });
      if (cyclic) {
        std::vector<int> cycle(first, stack.end());
        std::sort(cycle.begin(), cycle.end());
        cycles.push_back(std::move(cycle));
      }
      stack.erase(first, stack.end());
    }
  }
  return cycles;
}

std::string cycle_subject(const CallGraph& graph,
                          const std::vector<int>& cycle) {
  std::string subject;
  for (const int member : cycle) {
    if (!subject.empty()) subject += " -> ";
    subject += graph.names[member];
  }
  return subject;
}

void check_bindings(const ArchitectureModel& model, adl::Diagnostics& report) {
  std::set<std::pair<std::string, std::string>> seen_ports;
  for (const ModelBinding& bind : model.bindings) {
    const std::string subject = bind.caller + "." + bind.port;
    if (!seen_ports.insert({bind.caller, bind.port}).second) {
      report.add(adl::Severity::kError, "duplicate-binding", subject,
                 "required port is bound more than once", bind.line);
    }
    const ModelInstance* caller = model.find_instance(bind.caller);
    if (caller == nullptr) {
      report.add(adl::Severity::kError, "dangling-binding", subject,
                 "binding from unknown instance '" + bind.caller + "'",
                 bind.line);
    } else if (!caller->required.empty()) {
      const bool known = std::any_of(
          caller->required.begin(), caller->required.end(),
          [&](const ModelPort& p) { return p.port == bind.port; });
      if (!known) {
        report.add(adl::Severity::kError, "unknown-port", subject,
                   "instance type '" + caller->type + "' declares no port '" +
                       bind.port + "'",
                   bind.line);
      }
    }
    if (bind.providers.empty()) {
      report.add(adl::Severity::kError, "dangling-binding", subject,
                 "binding has no provider", bind.line);
    }
    for (const std::string& provider : bind.providers) {
      if (model.find_instance(provider) == nullptr) {
        report.add(adl::Severity::kError, "dangling-binding", subject,
                   "binding to unknown instance '" + provider + "'",
                   bind.line);
      }
    }
  }
  // Unbound required ports: the call through them fails at run time.
  for (const ModelInstance& inst : model.instances) {
    for (const ModelPort& port : inst.required) {
      const bool bound = std::any_of(
          model.bindings.begin(), model.bindings.end(),
          [&](const ModelBinding& b) {
            return b.caller == inst.name && b.port == port.port;
          });
      if (!bound) {
        report.add(adl::Severity::kWarning, "unbound-port",
                   inst.name + "." + port.port,
                   "required port is not bound to any provider", inst.line);
      }
    }
  }
  // Connectors that route traffic for bound callers but have no provider.
  for (const ModelConnector& conn : model.connectors) {
    const bool has_caller = std::any_of(
        model.bindings.begin(), model.bindings.end(),
        [&](const ModelBinding& b) { return b.connector == conn.name; });
    if (has_caller && conn.providers.empty()) {
      report.add(adl::Severity::kError, "dangling-binding", conn.name,
                 "connector has bound callers but no provider", conn.line);
    }
    if (!has_caller && conn.providers.empty()) {
      report.add(adl::Severity::kWarning, "connector-unused", conn.name,
                 "connector has no providers and no bound callers",
                 conn.line);
    }
  }
}

void check_reachability(const ArchitectureModel& model,
                        const CallGraph& graph, adl::Diagnostics& report) {
  // Workload entry points: connectors nobody calls into through a binding
  // are external ingress; instances that call out but are never providers
  // are workload drivers.
  std::vector<std::string_view> called_connectors;
  called_connectors.reserve(model.bindings.size());
  std::vector<bool> provider(graph.names.size(), false);
  for (const ModelBinding& bind : model.bindings) {
    called_connectors.push_back(bind.connector);
    for (const std::string& name : bind.providers) {
      const int p = graph.index_of(name);
      if (p >= 0) provider[p] = true;
    }
  }
  std::sort(called_connectors.begin(), called_connectors.end());

  std::vector<bool> reachable(graph.names.size(), false);
  std::vector<int> frontier;
  frontier.reserve(graph.names.size());
  const auto reach = [&](int node) {
    if (node < 0 || reachable[node]) return;
    reachable[node] = true;
    frontier.push_back(node);
  };
  for (const ModelConnector& conn : model.connectors) {
    if (std::binary_search(called_connectors.begin(), called_connectors.end(),
                           std::string_view(conn.name))) {
      continue;
    }
    for (const std::string& name : conn.providers) reach(graph.index_of(name));
  }
  for (const ModelBinding& bind : model.bindings) {
    const int caller = graph.index_of(bind.caller);
    if (!provider[caller]) reach(caller);
  }
  while (!frontier.empty()) {
    const int at = frontier.back();
    frontier.pop_back();
    for (const CallGraph::Edge& edge : graph.out(at)) reach(edge.to);
  }
  for (const ModelInstance& inst : model.instances) {
    if (!reachable[graph.index_of(inst.name)]) {
      report.add(adl::Severity::kWarning, "unreachable-component", inst.name,
                 "not reachable from any workload entry point", inst.line);
    }
  }
}

void check_cycles(const ArchitectureModel& model, const CallGraph& graph,
                  adl::Diagnostics& report) {
  const auto line_of = [&](const std::vector<int>& cycle) {
    const ModelInstance* first =
        model.find_instance(std::string(graph.names[cycle.front()]));
    return first != nullptr ? first->line : 0;
  };
  std::vector<int> in_sync_cycle;  // SCCs are disjoint: no repeats
  for (const std::vector<int>& cycle : call_cycles(graph, /*sync_only=*/true)) {
    in_sync_cycle.insert(in_sync_cycle.end(), cycle.begin(), cycle.end());
    report.add(adl::Severity::kError, "sync-call-cycle",
               cycle_subject(graph, cycle),
               "synchronous call cycle: deadlocks under load and makes "
               "quiescence unreachable",
               line_of(cycle));
  }
  std::sort(in_sync_cycle.begin(), in_sync_cycle.end());
  for (const std::vector<int>& cycle :
       call_cycles(graph, /*sync_only=*/false)) {
    // Already reported as the harder sync variant?
    const bool subsumed =
        std::all_of(cycle.begin(), cycle.end(), [&](int n) {
          return std::binary_search(in_sync_cycle.begin(),
                                    in_sync_cycle.end(), n);
        });
    if (subsumed) continue;
    report.add(adl::Severity::kWarning, "connector-cycle",
               cycle_subject(graph, cycle),
               "call cycle through queued connectors: unbounded feedback "
               "unless the application breaks it",
               line_of(cycle));
  }
}

void check_routes(const ArchitectureModel& model, RouteSearch& routes,
                  adl::Diagnostics& report) {
  for (const ModelBinding& bind : model.bindings) {
    const ModelInstance* caller = model.find_instance(bind.caller);
    if (caller == nullptr || !model.has_node(caller->node)) continue;
    for (const std::string& provider_name : bind.providers) {
      const ModelInstance* provider = model.find_instance(provider_name);
      if (provider == nullptr || !model.has_node(provider->node)) continue;
      if (!routes.min_latency_us(caller->node, provider->node).has_value()) {
        report.add(adl::Severity::kError, "no-route",
                   bind.caller + "." + bind.port + " -> " + provider_name,
                   "no route from node '" + caller->node + "' to node '" +
                       provider->node + "'",
                   bind.line);
      }
    }
  }
}

void check_qos(const ArchitectureModel& model, RouteSearch& routes,
               adl::Diagnostics& report) {
  for (const ModelBinding& bind : model.bindings) {
    const ModelConnector* conn = model.find_connector(bind.connector);
    if (conn == nullptr || conn->budget_us <= 0) continue;
    const ModelInstance* caller = model.find_instance(bind.caller);
    if (caller == nullptr) continue;
    for (const std::string& provider_name : bind.providers) {
      const ModelInstance* provider = model.find_instance(provider_name);
      if (provider == nullptr) continue;
      const auto there = routes.min_latency_us(caller->node, provider->node);
      const auto back = routes.min_latency_us(provider->node, caller->node);
      if (!there.has_value() || !back.has_value()) continue;  // no-route owns it
      const std::int64_t floor_us = *there + *back;
      if (floor_us > conn->budget_us) {
        report.add(
            adl::Severity::kError, "qos-infeasible",
            conn->name + ": " + bind.caller + " -> " + provider_name,
            util::format("declared budget %lldus is below the topology's "
                         "round-trip latency floor %lldus",
                         static_cast<long long>(conn->budget_us),
                         static_cast<long long>(floor_us)),
            conn->line);
      }
    }
  }
}

/// Rebuilds `lts` under a new name (Lts names are fixed at construction).
lts::Lts renamed(const lts::Lts& lts_in, const std::string& name) {
  lts::Lts out(name);
  for (lts::StateId s = 1; s < lts_in.state_count(); ++s) out.add_state();
  for (lts::StateId s = 0; s < lts_in.state_count(); ++s) {
    out.set_final(s, lts_in.is_final(s));
  }
  for (const lts::Transition& t : lts_in.transitions()) {
    out.add_transition(t.from, t.label, t.to);
  }
  return out;
}

void check_protocols(const ArchitectureModel& model,
                     const VerifierOptions& options, adl::Diagnostics& report) {
  if (model.protocols.empty()) return;
  // Union-find over instances connected by bindings: each connected group
  // is one collaboration whose protocols must compose deadlock-free.
  std::map<std::string, std::string> parent;
  const std::function<std::string(const std::string&)> find =
      [&](const std::string& x) -> std::string {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    return it->second = find(it->second);
  };
  const auto unite = [&](const std::string& a, const std::string& b) {
    parent[find(a)] = find(b);
  };
  for (const ModelInstance& inst : model.instances) parent[inst.name] = inst.name;
  for (const ModelBinding& bind : model.bindings) {
    for (const std::string& provider : bind.providers) {
      if (model.find_instance(provider) != nullptr &&
          model.find_instance(bind.caller) != nullptr) {
        unite(bind.caller, provider);
      }
    }
  }
  std::map<std::string, std::vector<const ModelInstance*>> groups;
  for (const ModelInstance& inst : model.instances) {
    groups[find(inst.name)].push_back(&inst);
  }
  for (const auto& [root, members] : groups) {
    (void)root;
    std::vector<lts::Lts> roles;
    std::vector<std::string> role_names;
    int line = 0;
    for (const ModelInstance* inst : members) {
      auto proto = model.protocols.find(inst->type);
      if (proto == model.protocols.end()) continue;
      roles.push_back(renamed(proto->second, inst->name));
      role_names.push_back(inst->name);
      if (line == 0) line = inst->line;
    }
    if (roles.size() < 2) continue;
    std::vector<const lts::Lts*> parts;
    parts.reserve(roles.size());
    for (const lts::Lts& role : roles) parts.push_back(&role);
    const lts::CompositionReport composed =
        lts::check_composition(parts, options.max_states);
    report.states_explored += composed.states_explored;
    if (!composed.deadlock_free) {
      std::string trace = util::join(composed.counterexample, ", ");
      report.add(adl::Severity::kError, "protocol-deadlock",
                 util::join(role_names, " || "),
                 composed.diagnosis +
                     (trace.empty() ? std::string{}
                                    : " (after: " + trace + ")"),
                 line);
    } else if (composed.truncated) {
      report.truncated = true;
      report.add(adl::Severity::kWarning, "protocol-truncated",
                 util::join(role_names, " || "), composed.diagnosis, line);
    }
  }
}

}  // namespace

adl::Diagnostics verify_architecture(const ArchitectureModel& model,
                                     const VerifierOptions& options) {
  adl::Diagnostics report;
  const CallGraph graph(model);
  RouteSearch routes(model);
  check_bindings(model, report);
  check_reachability(model, graph, report);
  check_cycles(model, graph, report);
  check_routes(model, routes, report);
  check_qos(model, routes, report);
  if (options.check_protocols) check_protocols(model, options, report);
  return report;
}

std::vector<std::string> quiescence_unreachable(
    const ArchitectureModel& model) {
  const CallGraph graph(model);
  std::vector<int> stuck;  // SCCs are disjoint: no repeats
  for (const std::vector<int>& cycle : call_cycles(graph, /*sync_only=*/true)) {
    stuck.insert(stuck.end(), cycle.begin(), cycle.end());
  }
  std::sort(stuck.begin(), stuck.end());
  std::vector<std::string> members;
  members.reserve(stuck.size());
  for (const int n : stuck) members.emplace_back(graph.names[n]);
  return members;
}

}  // namespace aars::analysis
