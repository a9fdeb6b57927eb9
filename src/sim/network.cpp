#include "sim/network.h"

#include <algorithm>

namespace aars::sim {

Node& Network::add_node(const std::string& name, double capacity) {
  util::require(by_name_.find(name) == by_name_.end(),
                "duplicate node name");
  const NodeId id{nodes_.size() + 1};
  nodes_.push_back(std::make_unique<Node>(id, name, capacity));
  routes_.emplace_back();
  by_name_.emplace(name, id);
  return *nodes_.back();
}

Node& Network::node(NodeId id) {
  util::require(known(id), "unknown node id");
  return *nodes_[id.raw() - 1];
}

const Node& Network::node(NodeId id) const {
  util::require(known(id), "unknown node id");
  return *nodes_[id.raw() - 1];
}

Node* Network::find_node(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &node(it->second);
}

NodeId Network::node_id(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? NodeId::invalid() : it->second;
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->id());
  return out;
}

void Network::add_link(NodeId from, NodeId to, LinkSpec spec) {
  util::require(known(from) && known(to), "link endpoints must exist");
  util::require(from != to, "self links are not allowed");
  util::require(spec.bandwidth_bytes_per_sec > 0.0,
                "bandwidth must be positive");
  // Re-adding an existing link rewrites its spec in place: the routes stay.
  if (links_.insert_or_assign({from, to}, spec).second) drop_routes();
}

void Network::add_duplex_link(NodeId a, NodeId b, LinkSpec spec) {
  add_link(a, b, spec);
  add_link(b, a, spec);
}

bool Network::has_link(NodeId from, NodeId to) const {
  return links_.count({from, to}) > 0;
}

LinkSpec* Network::find_link(NodeId from, NodeId to) {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : &it->second;
}

std::optional<LinkSpec> Network::remove_link(NodeId from, NodeId to) {
  auto it = links_.find({from, to});
  if (it == links_.end()) return std::nullopt;
  LinkSpec spec = it->second;
  links_.erase(it);
  drop_routes();
  return spec;
}

std::vector<std::pair<NodeId, NodeId>> Network::links_of(NodeId node) const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const auto& [key, spec] : links_) {
    (void)spec;
    if (key.first == node || key.second == node) out.push_back(key);
  }
  return out;
}

void Network::drop_routes() {
  for (std::vector<Path>& row : routes_) row.clear();
}

void Network::fill_routes(std::size_t source) const {
  // BFS over the directed link graph.  A node's out-links are visited in
  // links_'s (from, to) order and the first parent found wins, so every
  // path is the one a per-pair search in that order finds.
  const std::size_t n = nodes_.size();
  std::vector<const Link*> parent(n, nullptr);
  std::vector<std::size_t> frontier{source};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId current{frontier[head] + 1};
    for (auto it = links_.lower_bound({current, NodeId::invalid()});
         it != links_.end() && it->first.first == current; ++it) {
      const std::size_t next = it->first.second.raw() - 1;
      if (next == source || parent[next] != nullptr) continue;
      parent[next] = &*it;
      frontier.push_back(next);
    }
  }
  std::vector<Path>& row = routes_[source];
  row.resize(n);
  for (std::size_t dest = 0; dest < n; ++dest) {
    for (const Link* hop = parent[dest]; hop != nullptr;) {
      row[dest].push_back(hop);
      const std::size_t prev = hop->first.first.raw() - 1;
      hop = prev == source ? nullptr : parent[prev];
    }
    std::reverse(row[dest].begin(), row[dest].end());
  }
}

std::span<const Network::Link* const> Network::hops(NodeId from,
                                                    NodeId to) const {
  if (!known(from) || !known(to)) return {};
  const std::size_t source = from.raw() - 1;
  const std::size_t dest = to.raw() - 1;
  if (routes_[source].empty()) fill_routes(source);
  // A node added after the fill has no links yet (adding one drops the
  // table), so it is unreachable.
  const std::vector<Path>& row = routes_[source];
  return dest < row.size() ? std::span(row[dest])
                           : std::span<const Link* const>{};
}

std::vector<NodeId> Network::route(NodeId from, NodeId to) const {
  if (from == to) return {from};
  const auto path = hops(from, to);
  if (path.empty()) return {};
  std::vector<NodeId> out{from};
  for (const Link* hop : path) out.push_back(hop->first.second);
  return out;
}

TransferOutcome Network::transfer(NodeId from, NodeId to, std::size_t bytes,
                                  util::Rng& rng) const {
  TransferOutcome out;
  if (from == to) return out;  // co-located, free
  const auto path = hops(from, to);
  if (path.empty()) {
    out.delivered = false;
    return out;
  }
  for (const Link* hop : path) {
    const LinkSpec& link = hop->second;
    if (link.loss_probability > 0.0 && rng.chance(link.loss_probability)) {
      out.delivered = false;
      return out;
    }
    Duration hop_delay = link.latency;
    hop_delay += static_cast<Duration>(static_cast<double>(bytes) /
                                       link.bandwidth_bytes_per_sec *
                                       util::kSecond);
    if (link.jitter > 0) {
      hop_delay += rng.uniform_int(-link.jitter, link.jitter);
    }
    out.delay += std::max<Duration>(hop_delay, 0);
    ++out.hops;
  }
  return out;
}

}  // namespace aars::sim
