// A connector-graph model of an architecture, decoupled from where it came
// from: either a validated ADL configuration (offline lint) or a live
// Application + Network (plan verification before the engine mutates the
// running system).  The verifier operates only on this model, so every
// check applies uniformly to both worlds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adl/ir.h"
#include "lts/lts.h"

namespace aars::runtime {
class Application;
}

namespace aars::analysis {

/// A required port on an instance.
struct ModelPort {
  std::string port;
  std::string interface;  // may be empty when unknown (live model)

  bool operator==(const ModelPort&) const = default;
};

struct ModelInstance {
  std::string name;
  std::string type;
  std::string node;
  std::vector<ModelPort> required;
  int line = 0;

  bool operator==(const ModelInstance&) const = default;
};

struct ModelConnector {
  std::string name;
  bool sync_delivery = true;
  /// Declared round-trip latency budget in microseconds; 0 = none.
  std::int64_t budget_us = 0;
  /// Provider instance names attached to (or bound through) the connector.
  std::vector<std::string> providers;
  int line = 0;

  bool operator==(const ModelConnector&) const = default;
};

/// One bound required port: caller.port -> providers via connector.
struct ModelBinding {
  std::string caller;
  std::string port;
  std::string connector;
  std::vector<std::string> providers;
  int line = 0;

  bool operator==(const ModelBinding&) const = default;
};

/// A directed link with its propagation latency.
struct ModelLink {
  std::string from;
  std::string to;
  std::int64_t latency_us = 0;

  bool operator==(const ModelLink&) const = default;
};

class ArchitectureModel {
 public:
  std::vector<std::string> nodes;
  std::vector<ModelLink> links;
  std::vector<ModelInstance> instances;
  std::vector<ModelConnector> connectors;
  std::vector<ModelBinding> bindings;
  /// component type name -> behavioural protocol (where declared).
  std::map<std::string, lts::Lts> protocols;

  /// Field by field, so a field added later is compared too.
  bool operator==(const ArchitectureModel&) const = default;

  ModelInstance* find_instance(const std::string& name);
  const ModelInstance* find_instance(const std::string& name) const;
  ModelConnector* find_connector(const std::string& name);
  const ModelConnector* find_connector(const std::string& name) const;
  bool has_node(const std::string& name) const;
};

/// Minimum-latency route search over one model's directed link graph.
/// At the first query between two distinct nodes, every name the graph
/// mentions (the model's nodes and each link endpoint: links may name nodes
/// the model does not list) is ranked in name order and each link is
/// restated over ranks.  A query runs Dijkstra over ranks; ranks order as
/// the names do, so ties pop exactly as a search keyed by name would.
/// Answers are memoised per (from, to) pair.  The model must outlive the
/// search and stay unchanged.
class RouteSearch {
 public:
  explicit RouteSearch(const ArchitectureModel& model) : model_(model) {}

  /// Minimum-latency path cost from `from` to `to`; nullopt when
  /// unreachable. Same node => 0.
  std::optional<std::int64_t> min_latency_us(std::string_view from,
                                             std::string_view to);

 private:
  struct Node {
    std::string_view name;
    std::optional<std::int64_t> dist;  // per query
  };
  struct Hop {
    int from = 0;
    int to = 0;
    std::int64_t latency_us = 0;
  };
  struct Answer {
    int from = 0;
    int to = 0;
    std::optional<std::int64_t> latency_us;
  };
  using Entry = std::pair<std::int64_t, int>;  // (distance, rank)

  void index();
  /// Rank of `name`, or -1 when no node or link mentions it.
  int rank(std::string_view name) const;
  std::optional<std::int64_t> search(int from, int to);

  const ArchitectureModel& model_;
  bool indexed_ = false;
  std::vector<Node> nodes_;  // sorted by name
  std::vector<Hop> hops_;    // in link order
  std::vector<Entry> heap_;
  std::vector<Answer> memo_;
};

/// Builds the model from a validated configuration. Implicit direct
/// connectors are synthesised for `bind a.p -> b;` forms, mirroring
/// Runtime::lower_adl's "implicit_<instance>_<port>_<n>" naming.
ArchitectureModel model_from(const adl::CompiledConfiguration& config);

/// Snapshots the live application + its network into `into`, overwriting
/// whatever it held while keeping the capacity of its strings and vectors,
/// so a caller that snapshots repeatedly into one model stops allocating
/// for it. Lines are 0 (there is no source text) and protocols are absent.
/// Nodes follow their ids; each link is taken once, at its lower-numbered
/// endpoint, in (from, to) order; instances, connectors and bindings follow
/// instance and connector ids, ports their declaration.
void model_from(runtime::Application& app, ArchitectureModel& into);

/// The same snapshot into a new model.
ArchitectureModel model_from(runtime::Application& app);

}  // namespace aars::analysis
