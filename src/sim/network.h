// Simulated network: nodes joined by links with latency, bandwidth, jitter
// and loss.  Message transfer delay between components on different nodes is
// computed here; co-located components communicate at zero network cost.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/node.h"
#include "util/errors.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/time.h"

namespace aars::sim {

/// Directed link properties.
struct LinkSpec {
  Duration latency = util::milliseconds(1);
  double bandwidth_bytes_per_sec = 12.5e6;  // 100 Mbit/s
  Duration jitter = 0;                      // uniform +/- jitter
  double loss_probability = 0.0;
};

/// Result of routing a payload across the network.
struct TransferOutcome {
  bool delivered = true;
  Duration delay = 0;
  int hops = 0;
};

/// Topology of Nodes and directed links. Owns the nodes.
///
/// Routes come from a table filled lazily, one BFS per source node, and
/// dropped only when a link is added or removed; `find_link` edits specs in
/// place, which the table points to, so degradations apply without a
/// rebuild.  The table points into the link map, so a Network is neither
/// copyable nor movable.
class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a node; name must be unique.
  Node& add_node(const std::string& name, double capacity);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Node* find_node(const std::string& name);
  NodeId node_id(const std::string& name) const;
  std::vector<NodeId> node_ids() const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Adds a directed link; use twice for a duplex connection.
  void add_link(NodeId from, NodeId to, LinkSpec spec);
  /// Convenience: adds both directions with the same spec.
  void add_duplex_link(NodeId a, NodeId b, LinkSpec spec);
  bool has_link(NodeId from, NodeId to) const;
  /// Mutable access for dynamic degradation scenarios.
  LinkSpec* find_link(NodeId from, NodeId to);
  /// Removes a directed link (partition / host-crash scenarios). Returns the
  /// removed spec so fault injectors can restore it later.
  std::optional<LinkSpec> remove_link(NodeId from, NodeId to);
  /// Directed links touching `node` (either endpoint), as (from, to) pairs.
  std::vector<std::pair<NodeId, NodeId>> links_of(NodeId node) const;
  using Links = std::map<std::pair<NodeId, NodeId>, LinkSpec>;
  /// Every directed link, in (from, to) order.
  const Links& links() const { return links_; }

  /// Computes delivery of `bytes` from `from` to `to`. Same node => free.
  /// Routes over the fewest-hop path; each hop adds latency + serialisation
  /// delay + jitter and applies the link's loss probability.
  TransferOutcome transfer(NodeId from, NodeId to, std::size_t bytes,
                           util::Rng& rng) const;

  /// Fewest-hop path (inclusive of endpoints); empty when unreachable.
  std::vector<NodeId> route(NodeId from, NodeId to) const;

 private:
  using Link = Links::value_type;
  using Path = std::vector<const Link*>;

  bool known(NodeId id) const {
    return id.valid() && id.raw() <= nodes_.size();
  }
  /// The links from `from` to `to` in path order; empty when unreachable.
  std::span<const Link* const> hops(NodeId from, NodeId to) const;
  void fill_routes(std::size_t source) const;
  void drop_routes();

  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
  std::unordered_map<std::string, NodeId> by_name_;
  Links links_;
  /// routes_[s][d]: the links of the fewest-hop path from node index s to
  /// node index d, empty when unreachable.  An empty row is unfilled.
  mutable std::vector<std::vector<Path>> routes_;
};

}  // namespace aars::sim
