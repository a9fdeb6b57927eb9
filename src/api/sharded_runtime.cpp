#include "api/sharded_runtime.h"

#include <utility>

#include "analysis/adl_screen.h"

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
  // shared across shard threads), ship the request one link latency out,
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
  hosts_.push_back(HostDecl{name, capacity, shard});
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::link(const std::string& a,
                                                       const std::string& b,
                                                       sim::LinkSpec spec) {
  links_.push_back(LinkDecl{a, b, spec});
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::link_all(sim::LinkSpec spec) {
  mesh_ = spec;
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::component_type(
    const std::string& name, component::ComponentRegistry::Factory factory) {
  types_.emplace_back(name, std::move(factory));
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::deploy(
    const std::string& type, const std::string& instance,
    const std::string& host, Value attributes) {
  deploys_.push_back(DeployDecl{type, instance, host, std::move(attributes)});
  return *this;
}

ShardedRuntime::Builder& ShardedRuntime::Builder::connect(
    connector::ConnectorSpec spec, std::vector<std::string> providers) {
  connects_.push_back(ConnectDecl{std::move(spec), std::move(providers)});
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

  // Resolve every name to its home shard up front (and catch conflicts).
  for (const HostDecl& h : hosts_) {
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
  for (const DeployDecl& d : deploys_) {
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
  for (const ConnectDecl& c : connects_) {
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

  // ADL worlds are homed on shard 0.  Compile each source up front so the
  // router learns every declared name (cross-shard calls may target ADL
  // connectors); shard 0's own builder recompiles and deploys them.
  constexpr std::size_t kAdlShard = 0;
  std::vector<adl::CompilationResult> adl_compiled;
  if (!options_.adl_sources.empty()) {
    analysis::VerifierOptions screen_options;
    screen_options.max_states = options_.verify_max_states;
    for (const std::string& source : options_.adl_sources) {
      adl_compiled.push_back(analysis::compile_adl(source, screen_options));
    }
    for (adl::CompilationResult& result : adl_compiled) {
      if (!result.ok()) return result.diagnostics.to_error();
      for (const adl::AstNode& node : result.config.ast.nodes) {
        if (router->host_shard(node.name).has_value()) {
          return Error{ErrorCode::kAlreadyExists,
                       "host declared twice: " + node.name};
        }
        router->assign_host(node.name, kAdlShard);
      }
      for (const adl::AstInstance& inst : result.config.ast.instances) {
        if (router->component_shard(inst.name).has_value()) {
          return Error{ErrorCode::kAlreadyExists,
                       "instance declared twice: " + inst.name};
        }
        router->assign_component(inst.name, kAdlShard);
      }
      for (const adl::AstConnector& conn : result.config.ast.connectors) {
        if (router->connector_shard(conn.name).has_value()) {
          return Error{ErrorCode::kAlreadyExists,
                       "connector declared twice: " + conn.name};
        }
        router->assign_connector(conn.name, kAdlShard);
      }
    }
  }

  // Declare each shard's world through the ordinary Runtime builder, in
  // declaration order, so a 1-shard world is built exactly like the
  // equivalent unsharded Runtime (byte-identical execution).
  auto sharded = std::unique_ptr<ShardedRuntime>(new ShardedRuntime());
  sharded->link_latency_ = fabric_.latency;
  for (std::size_t s = 0; s < shards_; ++s) {
    Runtime::Builder rb = Runtime::builder();
    // Config first, seed after: config() replaces the whole struct and
    // would clobber the per-shard seed offset.
    rb.config(options_.config);
    rb.seed(options_.config.seed + s);
    if (options_.metrics && s == 0) rb.metrics();
    if (options_.trace_capacity && s == 0) {
      rb.trace_ring(*options_.trace_capacity);
    }
    if (s == kAdlShard) {
      for (const std::string& source : options_.adl_sources) rb.adl(source);
      if (options_.raml_period.has_value()) {
        rb.with_raml(*options_.raml_period);
      }
    }
    for (const HostDecl& h : hosts_) {
      if (h.shard == s) rb.host(h.name, h.capacity);
    }
    for (const LinkDecl& l : links_) {
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
      if (*sa == s) rb.link(l.a, l.b, l.spec);
    }
    if (mesh_.has_value()) rb.link_all(*mesh_);
    for (const auto& [name, factory] : types_) rb.component_type(name, factory);
    for (const DeployDecl& d : deploys_) {
      if (*router->host_shard(d.host) == s) {
        rb.deploy(d.type, d.instance, d.host, d.attributes);
      }
    }
    for (const ConnectDecl& c : connects_) {
      if (*router->connector_shard(c.spec.name) == s) {
        rb.connect(c.spec, c.providers);
      }
    }
    if (options_.engine_options.has_value()) {
      rb.with_reconfig(*options_.engine_options);
    }
    if (options_.verify_mode.has_value()) {
      rb.with_verification(*options_.verify_mode, options_.verify_max_states);
    }
    auto built = rb.build();
    if (!built.ok()) return built.error();
    sharded->runtimes_.push_back(std::move(built).value());
  }

  // Stamp connector home shards now that the connectors exist.
  for (const ConnectDecl& c : connects_) {
    const std::size_t home = *router->connector_shard(c.spec.name);
    Runtime& rt = *sharded->runtimes_[home];
    rt.app().find_connector(rt.connector(c.spec.name))->set_home_shard(home);
  }
  for (const adl::CompilationResult& result : adl_compiled) {
    Runtime& rt = *sharded->runtimes_[kAdlShard];
    for (const adl::AstConnector& conn : result.config.ast.connectors) {
      rt.app()
          .find_connector(rt.connector(conn.name))
          ->set_home_shard(kAdlShard);
    }
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
