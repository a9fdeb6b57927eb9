#include "api/sharded_runtime.h"

#include <utility>

namespace aars {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

ShardedRuntime::Builder ShardedRuntime::builder() { return Builder{}; }

// --- invocation ----------------------------------------------------------------

namespace {

/// Origin node for a call entering a connector's home world from the
/// fabric: the first provider's own node, so the fabric latency (already
/// charged by the mailbox schedule time) is the only cross-shard cost.
util::NodeId fabric_origin(runtime::Application& app,
                           const connector::Connector& conn) {
  return app.placement(conn.providers().front());
}

}  // namespace

void ShardedRuntime::call(std::size_t from, const std::string& connector_name,
                          const std::string& operation, Value args,
                          ResponseCallback callback) {
  const auto home_opt = router_->connector_shard(connector_name);
  util::require(home_opt.has_value(), "connector not assigned to any shard");
  const std::size_t home = *home_opt;
  const util::Symbol op{operation};

  if (home == from) {
    runtime::Application& app = runtimes_[home]->app();
    const auto cid = app.connector_id(connector_name);
    const connector::Connector* conn = app.find_connector(cid);
    util::require(conn != nullptr && !conn->providers().empty(),
                  "connector has no providers");
    app.invoke_async(cid, op, args, fabric_origin(app, *conn),
                     std::move(callback));
    return;
  }

  // Crossing the fabric: detach the payload (COW buffers must not be
  // shared across shards), ship the request one link latency out,
  // and route the reply back the same way.  The callback is moved across
  // twice but only ever *runs* on shard `from`; end-to-end latency is
  // measured on the origin shard's clock.
  args.deep_detach();
  const util::SimTime depart = runtimes_[from]->loop().now();
  const util::Duration lat = link_latency_;
  ShardedRuntime* self = this;
  shard_set_->post(
      from, home, depart + lat,
      [self, from, home, op, lat, depart, name = connector_name,
       args = std::move(args), callback = std::move(callback)]() mutable {
        runtime::Application& app = self->runtimes_[home]->app();
        sim::EventLoop& home_loop = self->runtimes_[home]->loop();
        const auto cid = app.connector_id(name);
        const connector::Connector* conn = app.find_connector(cid);
        if (conn == nullptr || conn->providers().empty()) {
          self->shard_set_->post(
              home, from, home_loop.now() + lat,
              [self, from, depart, callback = std::move(callback)]() mutable {
                callback(Error{ErrorCode::kUnavailable,
                               "connector unavailable on its home shard"},
                         self->runtimes_[from]->loop().now() - depart);
              });
          return;
        }
        app.invoke_async(
            cid, op, args, fabric_origin(app, *conn),
            [self, from, home, lat, depart,
             callback = std::move(callback)](Result<Value> result,
                                             util::Duration) mutable {
              if (result.ok()) result.value().deep_detach();
              sim::EventLoop& reply_loop = self->runtimes_[home]->loop();
              self->shard_set_->post(
                  home, from, reply_loop.now() + lat,
                  [self, from, depart, result = std::move(result),
                   callback = std::move(callback)]() mutable {
                    callback(std::move(result),
                             self->runtimes_[from]->loop().now() - depart);
                  });
            });
      });
}

Status ShardedRuntime::post_event(std::size_t from,
                                  const std::string& connector_name,
                                  const std::string& operation, Value args) {
  const auto home_opt = router_->connector_shard(connector_name);
  if (!home_opt.has_value()) {
    return Error{ErrorCode::kNotFound,
                 "connector not assigned to any shard: " + connector_name};
  }
  const std::size_t home = *home_opt;
  const util::Symbol op{operation};
  if (home == from) {
    runtime::Application& app = runtimes_[home]->app();
    const auto cid = app.connector_id(connector_name);
    const connector::Connector* conn = app.find_connector(cid);
    if (conn == nullptr || conn->providers().empty()) {
      return Error{ErrorCode::kUnavailable, "connector has no providers"};
    }
    return app.send_event(cid, op, args, fabric_origin(app, *conn));
  }
  args.deep_detach();
  const util::SimTime depart = runtimes_[from]->loop().now();
  ShardedRuntime* self = this;
  shard_set_->post(
      from, home, depart + link_latency_,
      [self, home, op, name = connector_name,
       args = std::move(args)]() mutable {
        runtime::Application& app = self->runtimes_[home]->app();
        const auto cid = app.connector_id(name);
        const connector::Connector* conn = app.find_connector(cid);
        if (conn == nullptr || conn->providers().empty()) return;
        (void)app.send_event(cid, op, args, fabric_origin(app, *conn));
      });
  return Status::success();
}

// --- reconfiguration -----------------------------------------------------------

void ShardedRuntime::migrate_across(const std::string& instance,
                                    const std::string& target_host,
                                    reconfig::Done done) {
  const auto src = router_->component_shard(instance);
  const auto dst = router_->host_shard(target_host);
  util::require(src.has_value(), "component not assigned to any shard");
  util::require(dst.has_value(), "host not assigned to any shard");
  if (*src == *dst) {
    Runtime& rt = *runtimes_[*src];
    const auto component = rt.app().component_id(instance);
    const auto node = rt.network().node_id(target_host);
    rt.engine().migrate_component(component, node, std::move(done));
    return;
  }
  reconfig::CrossShardMigrator::Shard source{*src, &runtimes_[*src]->app(),
                                             &runtimes_[*src]->engine()};
  reconfig::CrossShardMigrator::Shard target{*dst, &runtimes_[*dst]->app(),
                                             &runtimes_[*dst]->engine()};
  reconfig::CrossShardMigrator::Request request;
  request.instance = instance;
  request.target_host = target_host;
  reconfig::CrossShardMigrator::start(*shard_set_, *router_, source, target,
                                      std::move(request), std::move(done));
}

// --- Builder -------------------------------------------------------------------

ShardedRuntime::Builder& ShardedRuntime::Builder::with_shards(std::size_t n) {
  shards_ = n;
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::cross_shard_link(
    sim::LinkSpec spec) {
  fabric_ = spec;
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::mailbox_capacity(
    std::size_t capacity) {
  mailbox_capacity_ = capacity;
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::host(const std::string& name,
                                                       double capacity,
                                                       std::size_t shard) {
  world_.hosts.push_back(api::World::HostDecl{name, capacity, shard});
  return *this;
}

Result<std::unique_ptr<ShardedRuntime>> ShardedRuntime::Builder::build() {
  if (shards_ == 0) {
    return Error{ErrorCode::kInvalidArgument, "need at least one shard"};
  }
  if (fabric_.latency <= 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "cross-shard link latency must be positive (it is the "
                 "conservative window lookahead)"};
  }
  auto router = std::make_unique<runtime::ShardRouter>(shards_);

  // Resolve every name to its home shard up front (and catch conflicts):
  // hosts, then the ADL world's names, then deployments, then connectors.
  for (const api::World::HostDecl& h : world_.hosts) {
    if (h.shard >= shards_) {
      return Error{ErrorCode::kInvalidArgument,
                   "host '" + h.name + "' assigned to unknown shard"};
    }
    if (router->host_shard(h.name).has_value()) {
      return Error{ErrorCode::kAlreadyExists,
                   "host declared twice: " + h.name};
    }
    router->assign_host(h.name, h.shard);
  }

  // The router learns the ADL world's names so cross-shard calls may
  // target them.
  auto compiled = Runtime::compile_adl(world_);
  if (!compiled.ok()) return compiled.error();
  for (const adl::CompilationResult& result : compiled.value()) {
    for (const adl::AstNode& node : result.config.ast.nodes) {
      if (router->host_shard(node.name).has_value()) {
        return Error{ErrorCode::kAlreadyExists,
                     "host declared twice: " + node.name};
      }
      router->assign_host(node.name, api::kAdlShard);
    }
    for (const adl::AstInstance& inst : result.config.ast.instances) {
      if (router->component_shard(inst.name).has_value()) {
        return Error{ErrorCode::kAlreadyExists,
                     "instance declared twice: " + inst.name};
      }
      router->assign_component(inst.name, api::kAdlShard);
    }
    for (const adl::AstConnector& conn : result.config.ast.connectors) {
      if (router->connector_shard(conn.name).has_value()) {
        return Error{ErrorCode::kAlreadyExists,
                     "connector declared twice: " + conn.name};
      }
      router->assign_connector(conn.name, api::kAdlShard);
    }
  }

  for (const api::World::DeployDecl& d : world_.deploys) {
    const auto shard = router->host_shard(d.host);
    if (!shard.has_value()) {
      return Error{ErrorCode::kNotFound,
                   "deploy of '" + d.instance + "': unknown host " + d.host};
    }
    if (router->component_shard(d.instance).has_value()) {
      return Error{ErrorCode::kAlreadyExists,
                   "instance declared twice: " + d.instance};
    }
    router->assign_component(d.instance, *shard);
  }
  for (const api::World::ConnectDecl& c : world_.connects) {
    if (c.providers.empty()) {
      return Error{ErrorCode::kInvalidArgument,
                   "connector '" + c.spec.name + "' needs providers"};
    }
    std::optional<std::size_t> home;
    for (const std::string& provider : c.providers) {
      const auto shard = router->component_shard(provider);
      if (!shard.has_value()) {
        return Error{ErrorCode::kNotFound, "connector '" + c.spec.name +
                                               "': unknown provider " +
                                               provider};
      }
      if (home.has_value() && *home != *shard) {
        return Error{ErrorCode::kInvalidArgument,
                     "connector '" + c.spec.name +
                         "': providers span shards (a connector is homed "
                         "on exactly one shard)"};
      }
      home = *shard;
    }
    if (router->connector_shard(c.spec.name).has_value()) {
      return Error{ErrorCode::kAlreadyExists,
                   "connector declared twice: " + c.spec.name};
    }
    router->assign_connector(c.spec.name, *home);
  }
  for (const api::World::LinkDecl& l : world_.links) {
    const auto sa = router->host_shard(l.a);
    const auto sb = router->host_shard(l.b);
    if (!sa.has_value() || !sb.has_value()) {
      return Error{ErrorCode::kNotFound, "link references unknown host"};
    }
    if (*sa != *sb) {
      return Error{ErrorCode::kInvalidArgument,
                   "link '" + l.a + "' <-> '" + l.b +
                       "' spans shards; cross-shard reachability comes "
                       "from the fabric (cross_shard_link)"};
    }
  }

  // Every shard's stack comes from the one build path, so a 1-shard world
  // is built exactly like the equivalent unsharded Runtime (byte-identical
  // execution).
  auto sharded = std::unique_ptr<ShardedRuntime>(new ShardedRuntime());
  sharded->link_latency_ = fabric_.latency;
  for (std::size_t s = 0; s < shards_; ++s) {
    auto built = Runtime::materialise(world_, s, world_.config.seed + s,
                                      router.get(), compiled.value());
    if (!built.ok()) return built.error();
    sharded->runtimes_.push_back(std::move(built).value());
  }

  std::vector<sim::EventLoop*> loops;
  loops.reserve(shards_);
  for (auto& rt : sharded->runtimes_) loops.push_back(&rt->loop());
  sim::ShardSet::Options options;
  options.lookahead = fabric_.latency;
  options.mailbox_capacity = mailbox_capacity_;
  sharded->router_ = std::move(router);
  sharded->shard_set_ =
      std::make_unique<sim::ShardSet>(std::move(loops), options);
  return sharded;
}

}  // namespace aars
