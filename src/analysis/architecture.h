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
};

struct ModelInstance {
  std::string name;
  std::string type;
  std::string node;
  std::vector<ModelPort> required;
  int line = 0;
};

struct ModelConnector {
  std::string name;
  bool sync_delivery = true;
  /// Declared round-trip latency budget in microseconds; 0 = none.
  std::int64_t budget_us = 0;
  /// Provider instance names attached to (or bound through) the connector.
  std::vector<std::string> providers;
  int line = 0;
};

/// One bound required port: caller.port -> providers via connector.
struct ModelBinding {
  std::string caller;
  std::string port;
  std::string connector;
  std::vector<std::string> providers;
  int line = 0;
};

/// A directed link with its propagation latency.
struct ModelLink {
  std::string from;
  std::string to;
  std::int64_t latency_us = 0;
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

  ModelInstance* find_instance(const std::string& name);
  const ModelInstance* find_instance(const std::string& name) const;
  ModelConnector* find_connector(const std::string& name);
  const ModelConnector* find_connector(const std::string& name) const;
  bool has_node(const std::string& name) const;

  /// Minimum-latency path cost between two nodes over the directed link
  /// graph; nullopt when unreachable. Same node => 0.
  std::optional<std::int64_t> min_latency_us(const std::string& from,
                                             const std::string& to) const;
};

/// Builds the model from a validated configuration. Implicit direct
/// connectors are synthesised for `bind a.p -> b;` forms, mirroring the
/// deployer's "implicit_<instance>_<port>_<n>" naming.
ArchitectureModel model_from(const adl::CompiledConfiguration& config);

/// Snapshots the live application + its network into a model. Lines are 0
/// (there is no source text); protocols are absent unless supplied by the
/// caller.
ArchitectureModel model_from(runtime::Application& app);

}  // namespace aars::analysis
