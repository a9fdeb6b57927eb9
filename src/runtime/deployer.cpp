#include "runtime/deployer.h"

namespace aars::runtime {

using adl::AstBinding;
using adl::AstComponent;
using adl::AstConnector;
using adl::AstInstance;
using adl::AstInterface;
using adl::AstLink;
using adl::CompiledConfiguration;
using connector::DeliveryMode;
using connector::RoutingPolicy;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

namespace {

RoutingPolicy routing_from_name(const std::string& name) {
  if (name == "round_robin") return RoutingPolicy::kRoundRobin;
  if (name == "broadcast") return RoutingPolicy::kBroadcast;
  if (name == "least_backlog") return RoutingPolicy::kLeastBacklog;
  return RoutingPolicy::kDirect;
}

DeliveryMode delivery_from_name(const std::string& name) {
  return name == "queued" ? DeliveryMode::kQueued : DeliveryMode::kSync;
}

/// Merges component-type attribute defaults with instance overrides.
Value build_attributes(const AstComponent& type, const AstInstance& inst) {
  Value attrs = Value{util::ValueMap{}};
  for (const adl::AstAttribute& attr : type.attributes) {
    if (!attr.default_value.is_null()) {
      attrs[attr.name] = attr.default_value;
    }
  }
  for (const auto& [name, value] : inst.attribute_overrides) {
    attrs[name] = value;
  }
  return attrs;
}

}  // namespace

Result<Deployment> deploy(const CompiledConfiguration& config,
                          Application& app) {
  Deployment out;
  const adl::Configuration& ast = config.ast;

  // Nodes and links.
  for (const adl::AstNode& node : ast.nodes) {
    sim::Node& created = app.network().add_node(node.name, node.capacity);
    out.nodes.emplace(node.name, created.id());
  }
  for (const AstLink& link : ast.links) {
    sim::LinkSpec spec;
    spec.latency = link.latency_us;
    spec.bandwidth_bytes_per_sec = link.bandwidth_bytes_per_sec;
    spec.jitter = link.jitter_us;
    spec.loss_probability = link.loss;
    const NodeId from = out.nodes.at(link.from);
    const NodeId to = out.nodes.at(link.to);
    if (link.duplex) {
      app.network().add_duplex_link(from, to, spec);
    } else {
      app.network().add_link(from, to, spec);
    }
  }

  // Component types indexed by name for attribute/interface lookups.
  std::map<std::string, const AstComponent*> types;
  for (const AstComponent& comp : ast.components) {
    types.emplace(comp.name, &comp);
  }

  // Instances.
  for (const AstInstance& inst : ast.instances) {
    const AstComponent& type = *types.at(inst.type);
    if (!app.registry().has_type(inst.type)) {
      return Error{ErrorCode::kNotFound,
                   inst.name + ": no implementation registered for type '" +
                       inst.type + "'"};
    }
    const Value attrs = build_attributes(type, inst);
    Result<ComponentId> created =
        app.instantiate(inst.type, inst.name, out.nodes.at(inst.node), attrs);
    if (!created.ok()) return created.error();
    const ComponentId id = created.value();
    // Verify the implementation honours the declared provided interface.
    if (!type.provides.empty()) {
      const component::InterfaceDescription& declared =
          config.interfaces.at(type.provides);
      const Component* comp = app.find_component(id);
      if (Status s = comp->provided().satisfies(declared); !s.ok()) {
        return Error{ErrorCode::kIncompatible,
                     inst.name + ": implementation does not honour " +
                         type.provides + ": " + s.error().message()};
      }
    }
    out.instances.emplace(inst.name, id);
  }

  // Connectors.
  for (const AstConnector& conn : ast.connectors) {
    ConnectorSpec spec;
    spec.name = conn.name;
    spec.routing = routing_from_name(conn.routing);
    spec.delivery = delivery_from_name(conn.delivery);
    spec.queue_capacity = static_cast<std::size_t>(conn.capacity);
    Result<ConnectorId> created = app.create_connector(spec, conn.aspects);
    if (!created.ok()) return created.error();
    out.connectors.emplace(conn.name, created.value());
  }

  // Bindings: attach providers, then bind the caller port.
  std::uint64_t implicit_counter = 0;
  for (const AstBinding& bind : ast.bindings) {
    ConnectorId conn_id;
    if (bind.via_connector.empty()) {
      ConnectorSpec spec;
      spec.name = "implicit_" + bind.from_instance + "_" + bind.from_port +
                  "_" + std::to_string(implicit_counter++);
      spec.routing = RoutingPolicy::kDirect;
      spec.delivery = DeliveryMode::kSync;
      Result<ConnectorId> created = app.create_connector(spec);
      if (!created.ok()) return created.error();
      conn_id = created.value();
    } else {
      conn_id = out.connectors.at(bind.via_connector);
    }
    for (const std::string& provider : bind.to_instances) {
      const ComponentId provider_id = out.instances.at(provider);
      Connector* conn = app.find_connector(conn_id);
      if (!conn->has_provider(provider_id)) {
        if (Status s = app.add_provider(conn_id, provider_id); !s.ok()) {
          return s.error();
        }
      }
    }
    const ComponentId caller = out.instances.at(bind.from_instance);
    if (Status s = app.bind(caller, bind.from_port, conn_id); !s.ok()) {
      return s.error();
    }
  }
  return out;
}

}  // namespace aars::runtime
