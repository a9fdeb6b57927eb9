#include "reconfig/cross_shard.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "component/message.h"
#include "obs/metrics.h"

namespace aars::reconfig {

using component::MessageKind;
using connector::Connector;
using util::Error;
using util::ErrorCode;

namespace {

/// A held event detached from its source-shard channel, ready for
/// re-delivery once routes are rebound: operation, payload, headers and
/// control envelope, with no trace of its source-shard routing.
struct HeldEvent {
  component::Message event;
  std::string connector_name;
};

struct MigrationState {
  sim::ShardSet* shards = nullptr;
  runtime::ShardRouter* router = nullptr;
  CrossShardMigrator::Shard source;
  CrossShardMigrator::Shard target;
  CrossShardMigrator::Request request;
  Done done;

  enum class Phase { kScreen, kDrain } phase = Phase::kScreen;
  ComponentId component;
  SimTime drain_deadline = 0;
  ReconfigReport report;

  void trace(SimTime now, const std::string& detail) {
    obs::Registry::global().trace(now, obs::TraceKind::kReconfig,
                                  request.instance, detail);
  }

  bool fail(SimTime now, Error error) {
    report.status = std::move(error);
    report.finished_at = now;
    trace(now, "migrate_across failed: " + report.error_message());
    if (done) done(report);
    return false;  // unregister the barrier action
  }

  bool screen(SimTime now) {
    report.op = "migrate_across";
    report.started_at = now;
    component = source.app->component_id(request.instance);
    if (source.app->find_component(component) == nullptr) {
      return fail(now, Error{ErrorCode::kNotFound,
                             "no such instance on source shard: " +
                                 request.instance});
    }
    if (target.app->network().find_node(request.target_host) == nullptr) {
      return fail(now, Error{ErrorCode::kNotFound,
                             "no such host on target shard: " +
                                 request.target_host});
    }
    // Screen both sides under their own engine's verification policy: the
    // instance departs the source architecture and joins the target's.
    analysis::PlanStep remove;
    remove.op = analysis::PlanOp::kRemove;
    remove.instance = request.instance;
    if (auto s = source.engine->verify_step(remove, "migrate_across");
        !s.ok()) {
      return fail(now, s.error());
    }
    analysis::PlanStep add;
    add.op = analysis::PlanOp::kAdd;
    add.instance = request.instance;
    add.type = source.app->find_component(component)->type_name();
    add.node = request.target_host;
    if (auto s = target.engine->verify_step(add, "migrate_across"); !s.ok()) {
      return fail(now, s.error());
    }
    if (auto s = source.app->block_channels_to(component); !s.ok()) {
      return fail(now, s.error());
    }
    drain_deadline = now + request.drain_timeout;
    phase = Phase::kDrain;
    trace(now, "migrate_across: blocked, draining");
    return true;
  }

  bool drain(SimTime now) {
    if (source.app->in_flight_to(component) > 0) {
      if (now < drain_deadline) return true;  // keep waiting next barrier
      (void)source.app->unblock_channels_to(component);
      return fail(now, Error{ErrorCode::kTimeout,
                             "drain did not complete before the deadline"});
    }
    return transfer(now);
  }

  bool transfer(SimTime now) {
    // 1. Snapshot on the source; deep-detach every Value crossing the
    //    shard boundary (COW buffers must not be shared across shards).
    auto snapshot = source.app->snapshot_component(component);
    if (!snapshot.ok()) return fail(now, snapshot.error());
    component::Snapshot snap = std::move(snapshot).value();
    snap.attributes.deep_detach();
    snap.state.deep_detach();

    // 2. Instantiate + restore the replacement on the target shard.
    const util::NodeId dest =
        target.app->network().node_id(request.target_host);
    auto created = target.app->instantiate(snap.type_name, request.instance,
                                           dest, snap.attributes);
    if (!created.ok()) {
      (void)source.app->unblock_channels_to(component);
      return fail(now, created.error());
    }
    const ComponentId new_id = created.value();
    report.new_component = new_id;
    if (auto s = target.app->restore_component(new_id, snap); !s.ok()) {
      (void)source.app->unblock_channels_to(component);
      return fail(now, s.error());
    }

    // 3. Detach held traffic before any channel is torn down.  Events can
    //    be re-delivered once routes are rebound; requests cannot — their
    //    completion hooks are rooted in the source shard's call graph — so
    //    they are rejected (the caller may retry through the new route).
    const util::NodeId source_node = source.app->placement(component);
    std::vector<HeldEvent> events;
    for (runtime::Channel* chan : source.app->channels_to(component)) {
      const Connector* conn = source.app->find_connector(chan->connector());
      while (auto held = chan->take_held()) {
        ++report.held_messages;
        component::Message& m = held->message;
        if (m.kind == MessageKind::kEvent) {
          HeldEvent ev{{}, conn->name()};
          ev.event.operation = m.operation;
          ev.event.payload = std::move(m.payload);
          ev.event.headers = std::move(m.headers);
          ev.event.control = std::move(m.control);
          ev.event.payload.deep_detach();
          ev.event.headers.deep_detach();
          events.push_back(std::move(ev));
        } else if (held->reject) {
          held->reject(std::move(held->message),
                       Error{ErrorCode::kUnavailable,
                             "provider migrated across shards"});
        }
      }
    }

    // 4. Re-home connectors.  A connector whose only provider departs
    //    moves with it (same spec, fresh instance on the target app;
    //    interceptor chains do not migrate).  One with surviving providers
    //    stays on the source shard and merely drops the migrated provider.
    std::map<std::string, ConnectorId> moved;
    for (ConnectorId cid : source.app->connector_ids()) {
      Connector* conn = source.app->find_connector(cid);
      if (conn == nullptr || !conn->has_provider(component)) continue;
      if (conn->providers().size() > 1) {
        (void)source.app->remove_provider(cid, component);
        continue;
      }
      connector::ConnectorSpec spec = conn->spec();
      auto new_cid = target.app->create_connector(spec);
      if (!new_cid.ok()) return fail(now, new_cid.error());
      (void)target.app->add_provider(new_cid.value(), new_id);
      target.app->find_connector(new_cid.value())
          ->set_home_shard(target.index);
      moved.emplace(spec.name, new_cid.value());
      (void)source.app->remove_connector(cid);
      if (router->connector_shard(spec.name).has_value()) {
        router->rebind_connector(spec.name, target.index);
      }
    }

    // 5. Retire the source-side instance and flip the routing directory.
    if (auto s = source.app->destroy(component); !s.ok()) {
      return fail(now, s.error());
    }
    if (router->component_shard(request.instance).has_value()) {
      router->rebind_component(request.instance, target.index);
    }

    // 6. Re-deliver the held events through the rebound routes: on the
    //    target app when the connector moved, on the source app (whose
    //    routing now picks a surviving provider) when it stayed.
    for (HeldEvent& ev : events) {
      if (auto it = moved.find(ev.connector_name); it != moved.end()) {
        if (target.app->send_event(it->second, std::move(ev.event), dest)
                .ok()) {
          ++report.replayed_messages;
        }
      } else {
        const ConnectorId cid =
            source.app->connector_id(ev.connector_name);
        if (source.app->find_connector(cid) != nullptr &&
            source.app->send_event(cid, std::move(ev.event), source_node)
                .ok()) {
          ++report.replayed_messages;
        }
      }
    }

    report.status = util::Status::success();
    report.finished_at = now;
    trace(now, "migrate_across: done");
    if (done) done(report);
    return false;  // protocol complete; unregister
  }

  bool step(SimTime now) {
    switch (phase) {
      case Phase::kScreen: return screen(now);
      case Phase::kDrain: return drain(now);
    }
    return false;
  }
};

}  // namespace

void CrossShardMigrator::start(sim::ShardSet& shards,
                               runtime::ShardRouter& router, Shard source,
                               Shard target, Request request, Done done) {
  util::require(source.app != nullptr && source.engine != nullptr &&
                    target.app != nullptr && target.engine != nullptr,
                "migration endpoints must be fully specified");
  util::require(source.index != target.index,
                "cross-shard migration needs distinct shards");
  auto state = std::make_shared<MigrationState>();
  state->shards = &shards;
  state->router = &router;
  state->source = source;
  state->target = target;
  state->request = std::move(request);
  state->done = std::move(done);
  shards.at_barrier([state](SimTime now) { return state->step(now); });
}

}  // namespace aars::reconfig
