// Deployment: from a validated configuration to a running application.
//
// This is the ADL-driven deployment automation the paper attributes to
// UniCon/Olan/Aster/C2 (§1): nodes and links are materialised in the
// simulated network, component instances are created through the registry
// and placed, connectors are generated through the factory, and bindings
// are installed — after checking that each C++ implementation actually
// honours the interface its ADL type declares.
#pragma once

#include <map>
#include <string>

#include "adl/ir.h"
#include "runtime/application.h"

namespace aars::runtime {

/// Name→id maps produced by a successful deployment.
struct Deployment {
  std::map<std::string, NodeId> nodes;
  std::map<std::string, ComponentId> instances;
  std::map<std::string, ConnectorId> connectors;
};

/// Deploys `config` into `app` (whose network must be empty of name
/// conflicts). Fails without side-effect rollback — deploy into a fresh
/// Application.
util::Result<Deployment> deploy(const adl::CompiledConfiguration& config,
                                Application& app);

}  // namespace aars::runtime
