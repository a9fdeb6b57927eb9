// aars::ShardedRuntime — multi-core execution of a partitioned world.
//
// A ShardedRuntime owns N complete per-shard stacks (each an aars::Runtime:
// loop + network + application + engine) plus the machinery that binds them
// into one simulation: a sim::ShardSet running the shards on as many
// threads as the process may use CPUs (the caller's thread among them)
// under conservative time windows, a runtime::ShardRouter directory mapping
// hosts/components/connectors to their home shard, and a cross-shard link
// whose latency sets the window lookahead.
//
//   auto srt = aars::ShardedRuntime::builder()
//                  .with_shards(4)
//                  .seed(7)
//                  .cross_shard_link(link)          // latency >= lookahead
//                  .host("edge-0", 10000, /*shard=*/0)
//                  .host("core-1", 10000, /*shard=*/1)
//                  .component_class<EchoServer>("EchoServer")
//                  .deploy("EchoServer", "svc", "core-1")
//                  .connect(spec, {"svc"})          // homed on shard 1
//                  .build()
//                  .value();
//   srt->call(0, "svc", "echo", args, callback);   // cross-shard RPC
//   srt->run();
//
// Ownership rules at the shard boundary (see DESIGN.md "Threading and
// ownership under sharding"): payload Values crossing shards are
// deep-detached (COW sharing never spans shards), operation names travel
// as interned Symbols (immortal storage, safe to read anywhere), and
// callbacks are *moved* across but only ever executed on their origin
// shard.  with_shards(1) degrades to plain single-threaded execution,
// byte-identical to an equivalent aars::Runtime.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "api/runtime.h"
#include "reconfig/cross_shard.h"
#include "runtime/shard_router.h"
#include "sim/shard_set.h"

namespace aars {

class ShardedRuntime {
 public:
  class Builder;
  /// Starts a fluent sharded-world declaration.
  static Builder builder();

  // --- the owned stacks --------------------------------------------------------
  std::size_t shard_count() const { return runtimes_.size(); }
  /// Shard i's complete runtime stack.
  Runtime& shard(std::size_t i) { return *runtimes_[i]; }
  sim::ShardSet& shards() { return *shard_set_; }
  runtime::ShardRouter& router() { return *router_; }
  /// One-way latency of the cross-shard fabric (== window lookahead).
  util::Duration cross_shard_latency() const { return link_latency_; }

  using ResponseCallback = runtime::Application::ResponseCallback;

  // --- cross-shard invocation --------------------------------------------------
  /// Calls `operation` on the named connector from shard `from`.  Local
  /// when the connector is homed on `from`; otherwise the request crosses
  /// the fabric (one link latency each way), `args` is deep-detached, and
  /// `callback` fires on shard `from` with the end-to-end latency.
  /// Callable mid-window from shard `from`'s own code, or from the
  /// coordinator thread between runs.
  void call(std::size_t from, const std::string& connector_name,
            const std::string& operation, util::Value args,
            ResponseCallback callback);
  /// One-way event through the named connector; cross-shard delivery costs
  /// one link latency.  kNotFound when the connector is unknown.
  util::Status post_event(std::size_t from, const std::string& connector_name,
                          const std::string& operation, util::Value args);

  // --- reconfiguration ---------------------------------------------------------
  /// Moves `instance` to `target_host`.  Same shard: the shard engine's
  /// geographical migrate.  Different shard: the barrier-driven
  /// reconfig::CrossShardMigrator protocol (screened by each shard's plan
  /// verifier).  `done` fires on the coordinator thread.
  void migrate_across(const std::string& instance,
                      const std::string& target_host, reconfig::Done done);

  // --- run ---------------------------------------------------------------------
  std::size_t run() { return shard_set_->run(); }
  std::size_t run_until(util::SimTime t) { return shard_set_->run_until(t); }
  std::size_t run_for(util::Duration d) { return shard_set_->run_for(d); }
  util::SimTime now() const { return shard_set_->now(); }

 private:
  friend class Builder;
  ShardedRuntime() = default;

  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::unique_ptr<runtime::ShardRouter> router_;
  std::unique_ptr<sim::ShardSet> shard_set_;
  util::Duration link_latency_ = util::kMillisecond;
};

class ShardedRuntime::Builder
    : public api::WorldBuilder<ShardedRuntime::Builder> {
 public:
  // World options, ADL sources, links, component types, deployments and
  // connectors come from the shared api::WorldBuilder mixin; build() hands
  // the one api::World to Runtime's one build path, once per shard.
  // Placement: a host lives on its declared shard, a deployment on its
  // host's shard, a connector on its providers' shard.  The ADL world (its
  // hosts, instances and connectors), with_raml(), the `when … reconfigure`
  // rules and their explore_rules() gate live on shard 0; each ADL source
  // compiles once per build().  Verification applies to every shard.  seed
  // is the base RNG seed: shard i's stack seeds with (seed + i), so shard 0
  // of a 1-shard world matches an unsharded Runtime with the same seed.

  /// Number of shards: a deterministic partition of the world, run on
  /// min(n, usable CPUs) threads.  1 = single-threaded fast path.
  Builder& with_shards(std::size_t n);
  /// The fabric connecting shards; its latency becomes the conservative
  /// window lookahead (so it lower-bounds every cross-shard delivery).
  Builder& cross_shard_link(sim::LinkSpec spec);
  /// Per shard-pair SPSC mailbox capacity (overflow degrades gracefully).
  Builder& mailbox_capacity(std::size_t capacity);

  /// Declares a host on a shard.  Links join hosts of one shard;
  /// cross-shard reachability comes from the fabric, not explicit links.
  Builder& host(const std::string& name, double capacity, std::size_t shard);

  /// Materialises the sharded world.
  util::Result<std::unique_ptr<ShardedRuntime>> build();

 private:
  std::size_t shards_ = 1;
  sim::LinkSpec fabric_;
  std::size_t mailbox_capacity_ = 4096;
};

}  // namespace aars
