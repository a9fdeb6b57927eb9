// Cross-shard component migration.
//
// Moves a component instance from one shard's runtime stack to another's —
// the sharded analogue of the engine's geographical change.  The protocol
// is a state machine driven by sim::ShardSet barriers (coordinator thread,
// helpers parked — the only moments when two shards' worlds may be touched
// together):
//
//   screen    verify the change on both sides through each shard engine's
//             configured plan verifier (kRemove on the source model, kAdd
//             on the target model), honouring off/warn/enforce; then block
//             the source channels so new traffic parks instead of racing
//             the move.
//   drain     wait (over as many windows as needed, up to drain_timeout of
//             simulated time) until nothing is in flight to the instance.
//   transfer  snapshot the component, instantiate + restore it on the
//             target shard (payloads deep-detached — COW values must not
//             share buffers across shards), re-home its
//             single-provider connectors, hand held *event* messages over
//             for re-delivery on the target, reject held *requests* (their
//             completion hooks are rooted in the source shard's world and
//             cannot cross; the caller sees kUnavailable and may retry
//             through the rebound route), rebind the ShardRouter, and
//             destroy the source-side instance.
//
// Limitations (by design, documented): connectors with other remaining
// providers stay on the source shard (only the departing provider is
// detached); interceptor chains do not migrate with a connector.
#pragma once

#include <string>

#include "reconfig/engine.h"
#include "runtime/application.h"
#include "runtime/shard_router.h"
#include "sim/shard_set.h"
#include "util/errors.h"
#include "util/time.h"

namespace aars::reconfig {

class CrossShardMigrator {
 public:
  /// One side of the migration: a shard index plus that shard's stack.
  struct Shard {
    std::size_t index = 0;
    runtime::Application* app = nullptr;
    ReconfigurationEngine* engine = nullptr;
  };

  struct Request {
    /// Instance to move (must exist on the source shard).
    std::string instance;
    /// Destination host name in the *target* shard's world.
    std::string target_host;
    /// Simulated-time budget for the drain phase.
    util::Duration drain_timeout = util::seconds(10);
  };

  /// Registers the migration protocol on `shards`' barriers; `done` fires
  /// from the barrier where it completes or fails (report.op is
  /// "migrate_across").  Call from the coordinator thread only.  The
  /// source and target must be distinct shards.
  static void start(sim::ShardSet& shards, runtime::ShardRouter& router,
                    Shard source, Shard target, Request request, Done done);
};

}  // namespace aars::reconfig
