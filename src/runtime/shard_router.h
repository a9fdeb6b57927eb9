// Name -> shard routing for sharded execution.
//
// Under sim::ShardSet each shard runs a complete per-shard runtime stack
// (loop + network + application); hosts, component instances and
// connectors live on exactly one shard.  The ShardRouter is the shared
// directory that answers "which shard serves this name": the sharded
// runtime consults it to route cross-shard calls, and cross-shard
// migration rebinds entries here (at a barrier) as the authoritative
// switch-over point.
//
// Thread-safety by phases, not locks: runners only *read* the maps
// mid-window; every mutation (assign at build time, rebind during
// migration) happens on the coordinator thread at a barrier with all
// helpers parked, so readers never observe a map in motion.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/errors.h"

namespace aars::runtime {

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shard_count) : shard_count_(shard_count) {
    util::require(shard_count > 0, "router needs at least one shard");
  }

  std::size_t shard_count() const { return shard_count_; }

  // --- hosts -------------------------------------------------------------------
  void assign_host(const std::string& host, std::size_t shard) {
    assign(hosts_, host, shard, "host already assigned to a shard");
  }
  std::optional<std::size_t> host_shard(const std::string& host) const {
    return lookup(hosts_, host);
  }

  // --- component instances -----------------------------------------------------
  void assign_component(const std::string& instance, std::size_t shard) {
    assign(components_, instance, shard,
           "component already assigned to a shard");
  }
  /// Migration switch-over: call only at a barrier (helpers parked).
  void rebind_component(const std::string& instance, std::size_t shard) {
    rebind(components_, instance, shard,
           "component not assigned to any shard");
  }
  std::optional<std::size_t> component_shard(
      const std::string& instance) const {
    return lookup(components_, instance);
  }

  // --- connectors --------------------------------------------------------------
  /// A connector's home shard is where its providers execute; calls from
  /// other shards are forwarded there.
  void assign_connector(const std::string& name, std::size_t shard) {
    assign(connectors_, name, shard,
           "connector already assigned to a shard");
  }
  void rebind_connector(const std::string& name, std::size_t shard) {
    rebind(connectors_, name, shard,
           "connector not assigned to any shard");
  }
  std::optional<std::size_t> connector_shard(const std::string& name) const {
    return lookup(connectors_, name);
  }

  /// Component instances homed on `shard` (diagnostics, rebalancing).
  std::vector<std::string> components_on(std::size_t shard) const {
    std::vector<std::string> out;
    for (const auto& [name, s] : components_) {
      if (s == shard) out.push_back(name);
    }
    return out;
  }

 private:
  using Map = std::map<std::string, std::size_t>;

  void assign(Map& map, const std::string& name, std::size_t shard,
              const char* duplicate_message) {
    util::require(shard < shard_count_, "shard index out of range");
    const bool inserted = map.emplace(name, shard).second;
    util::require(inserted, duplicate_message);
  }
  void rebind(Map& map, const std::string& name, std::size_t shard,
              const char* missing_message) {
    util::require(shard < shard_count_, "shard index out of range");
    auto it = map.find(name);
    util::require(it != map.end(), missing_message);
    it->second = shard;
  }
  std::optional<std::size_t> lookup(const Map& map,
                                    const std::string& name) const {
    auto it = map.find(name);
    if (it == map.end()) return std::nullopt;
    return it->second;
  }

  std::size_t shard_count_;
  Map hosts_;
  Map components_;
  Map connectors_;
};

}  // namespace aars::runtime
