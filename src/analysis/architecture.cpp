#include "analysis/architecture.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "runtime/application.h"

namespace aars::analysis {

ModelInstance* ArchitectureModel::find_instance(const std::string& name) {
  for (ModelInstance& inst : instances) {
    if (inst.name == name) return &inst;
  }
  return nullptr;
}

const ModelInstance* ArchitectureModel::find_instance(
    const std::string& name) const {
  return const_cast<ArchitectureModel*>(this)->find_instance(name);
}

ModelConnector* ArchitectureModel::find_connector(const std::string& name) {
  for (ModelConnector& conn : connectors) {
    if (conn.name == name) return &conn;
  }
  return nullptr;
}

const ModelConnector* ArchitectureModel::find_connector(
    const std::string& name) const {
  return const_cast<ArchitectureModel*>(this)->find_connector(name);
}

bool ArchitectureModel::has_node(const std::string& name) const {
  return std::find(nodes.begin(), nodes.end(), name) != nodes.end();
}

void RouteSearch::index() {
  nodes_.reserve(model_.nodes.size() + 2 * model_.links.size());
  const auto add = [this](std::string_view name) {
    nodes_.push_back(Node{name, std::nullopt});
  };
  for (const std::string& name : model_.nodes) add(name);
  for (const ModelLink& link : model_.links) {
    add(link.from);
    add(link.to);
  }
  std::sort(nodes_.begin(), nodes_.end(),
            [](const Node& a, const Node& b) { return a.name < b.name; });
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end(),
                           [](const Node& a, const Node& b) {
                             return a.name == b.name;
                           }),
               nodes_.end());
  hops_.reserve(model_.links.size());
  for (const ModelLink& link : model_.links) {
    hops_.push_back(Hop{rank(link.from), rank(link.to), link.latency_us});
  }
  heap_.reserve(nodes_.size());
  indexed_ = true;
}

int RouteSearch::rank(std::string_view name) const {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), name,
      [](const Node& node, std::string_view key) { return node.name < key; });
  return it != nodes_.end() && it->name == name
             ? static_cast<int>(it - nodes_.begin())
             : -1;
}

std::optional<std::int64_t> RouteSearch::min_latency_us(std::string_view from,
                                                        std::string_view to) {
  if (from == to) return 0;
  if (!indexed_) index();
  const int source = rank(from);
  const int target = rank(to);
  if (source < 0 || target < 0) return std::nullopt;
  for (const Answer& answer : memo_) {
    if (answer.from == source && answer.to == target) return answer.latency_us;
  }
  const std::optional<std::int64_t> latency = search(source, target);
  memo_.push_back(Answer{source, target, latency});
  return latency;
}

std::optional<std::int64_t> RouteSearch::search(int from, int to) {
  // Dijkstra by latency; a node may sit in the heap more than once, and
  // the stale entries are skipped when popped.
  for (Node& node : nodes_) node.dist.reset();
  heap_.clear();
  const std::greater<Entry> later;
  nodes_[from].dist = 0;
  heap_.push_back({0, from});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, node] = heap_.back();
    heap_.pop_back();
    if (node == to) return d;
    if (*nodes_[node].dist < d) continue;
    for (const Hop& hop : hops_) {
      if (hop.from != node) continue;
      const std::int64_t next = d + hop.latency_us;
      std::optional<std::int64_t>& dist = nodes_[hop.to].dist;
      if (!dist.has_value() || next < *dist) {
        dist = next;
        heap_.push_back({next, hop.to});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return std::nullopt;
}

ArchitectureModel model_from(const adl::CompiledConfiguration& config) {
  ArchitectureModel model;
  const adl::Configuration& ast = config.ast;

  for (const adl::AstNode& node : ast.nodes) model.nodes.push_back(node.name);
  for (const adl::AstLink& link : ast.links) {
    model.links.push_back(ModelLink{link.from, link.to, link.latency_us});
    if (link.duplex) {
      model.links.push_back(ModelLink{link.to, link.from, link.latency_us});
    }
  }

  std::map<std::string, const adl::AstComponent*> components;
  for (const adl::AstComponent& comp : ast.components) {
    components.emplace(comp.name, &comp);
  }
  for (const adl::AstInstance& inst : ast.instances) {
    ModelInstance m;
    m.name = inst.name;
    m.type = inst.type;
    m.node = inst.node;
    m.line = inst.loc.line;
    auto comp = components.find(inst.type);
    if (comp != components.end()) {
      for (const adl::AstRequire& req : comp->second->requires_) {
        m.required.push_back(ModelPort{req.port, req.interface});
      }
    }
    model.instances.push_back(std::move(m));
  }

  for (const adl::AstConnector& conn : ast.connectors) {
    ModelConnector m;
    m.name = conn.name;
    m.sync_delivery = conn.delivery == "sync";
    m.budget_us = conn.budget_us;
    m.line = conn.loc.line;
    model.connectors.push_back(std::move(m));
  }

  std::uint64_t implicit_counter = 0;
  for (const adl::AstBinding& bind : ast.bindings) {
    ModelBinding m;
    m.caller = bind.from_instance;
    m.port = bind.from_port;
    m.providers = bind.to_instances;
    m.line = bind.loc.line;
    if (bind.via_connector.empty()) {
      // Mirror Runtime::lower_adl: an implicit sync direct connector per
      // binding.
      ModelConnector implicit;
      implicit.name = "implicit_" + bind.from_instance + "_" +
                      bind.from_port + "_" + std::to_string(implicit_counter++);
      implicit.sync_delivery = true;
      implicit.line = bind.loc.line;
      m.connector = implicit.name;
      model.connectors.push_back(std::move(implicit));
    } else {
      m.connector = bind.via_connector;
    }
    if (ModelConnector* conn = model.find_connector(m.connector)) {
      for (const std::string& provider : m.providers) {
        if (std::find(conn->providers.begin(), conn->providers.end(),
                      provider) == conn->providers.end()) {
          conn->providers.push_back(provider);
        }
      }
    }
    model.bindings.push_back(std::move(m));
  }
  model.protocols = config.protocols;
  return model;
}

namespace {

/// Element `i` of `items`, which holds at least `i` elements: one kept from
/// an earlier snapshot, whose strings and vectors keep their capacity, or a
/// new one appended.
template <typename T>
T& element(std::vector<T>& items, std::size_t i) {
  return i < items.size() ? items[i] : items.emplace_back();
}

}  // namespace

void model_from(runtime::Application& app, ArchitectureModel& into) {
  sim::Network& network = app.network();
  // Node ids are dense from 1 and nodes are never removed.
  const std::size_t node_count = network.node_count();
  into.nodes.resize(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    into.nodes[i] = network.node(util::NodeId{i + 1}).name();
  }
  const auto assign_node = [&into](std::string& out, util::NodeId id) {
    if (!id.valid() || id.raw() > into.nodes.size()) {
      out.clear();
    } else {
      out = into.nodes[id.raw() - 1];
    }
  };
  // Each link once, grouped by its lower endpoint in id order and in
  // (from, to) order within a group: count the groups, then place.
  const sim::Network::Links& links = network.links();
  std::vector<std::size_t> next(node_count, 0);
  for (const auto& [ends, spec] : links) {
    ++next[std::min(ends.first, ends.second).raw() - 1];
  }
  std::size_t offset = 0;
  for (std::size_t& slot : next) offset += std::exchange(slot, offset);
  into.links.resize(links.size());
  for (const auto& [ends, spec] : links) {
    const std::uint64_t lower = std::min(ends.first, ends.second).raw();
    ModelLink& link = into.links[next[lower - 1]++];
    assign_node(link.from, ends.first);
    assign_node(link.to, ends.second);
    link.latency_us = spec.latency;
  }

  const std::vector<util::ComponentId> component_ids = app.component_ids();
  into.instances.resize(component_ids.size());
  std::size_t ports = 0;
  for (std::size_t i = 0; i < component_ids.size(); ++i) {
    const component::Component* comp = app.find_component(component_ids[i]);
    ModelInstance& m = into.instances[i];
    m.name = comp->instance_name();
    m.type = comp->type_name();
    assign_node(m.node, app.placement(component_ids[i]));
    const std::vector<component::RequiredPort>& required = comp->required();
    m.required.resize(required.size());
    for (std::size_t p = 0; p < required.size(); ++p) {
      m.required[p].port = required[p].name;
      m.required[p].interface = required[p].interface.name();
    }
    m.line = 0;
    ports += required.size();
  }

  const std::vector<util::ConnectorId> connector_ids = app.connector_ids();
  into.connectors.resize(connector_ids.size());
  for (std::size_t i = 0; i < connector_ids.size(); ++i) {
    const connector::Connector* conn = app.find_connector(connector_ids[i]);
    ModelConnector& m = into.connectors[i];
    m.name = conn->name();
    m.sync_delivery = conn->delivery() == connector::DeliveryMode::kSync;
    m.budget_us = 0;
    m.providers.reserve(conn->providers().size());
    std::size_t providers = 0;
    for (util::ComponentId provider : conn->providers()) {
      if (const component::Component* comp = app.find_component(provider)) {
        element(m.providers, providers++) = comp->instance_name();
      }
    }
    m.providers.resize(providers);
    m.line = 0;
  }

  into.bindings.reserve(ports);
  std::size_t bound = 0;
  for (std::size_t i = 0; i < component_ids.size(); ++i) {
    for (const ModelPort& port : into.instances[i].required) {
      const util::ConnectorId via_id = app.binding(component_ids[i], port.port);
      const auto conn = std::lower_bound(connector_ids.begin(),
                                         connector_ids.end(), via_id);
      if (conn == connector_ids.end() || *conn != via_id) continue;
      const ModelConnector& via =
          into.connectors[static_cast<std::size_t>(conn -
                                                   connector_ids.begin())];
      ModelBinding& m = element(into.bindings, bound++);
      m.caller = into.instances[i].name;
      m.port = port.port;
      m.connector = via.name;
      m.providers = via.providers;
      m.line = 0;
    }
  }
  into.bindings.resize(bound);
  into.protocols.clear();
}

ArchitectureModel model_from(runtime::Application& app) {
  ArchitectureModel model;
  model_from(app, model);
  return model;
}

}  // namespace aars::analysis
