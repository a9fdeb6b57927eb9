#include "runtime/application.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "testing/test_components.h"

namespace aars::runtime {
namespace {

using aars::testing::AppFixture;
using component::Priority;
using util::ErrorCode;
using util::Value;

class ApplicationTest : public AppFixture {};

TEST_F(ApplicationTest, InstantiateActivatesAndPlaces) {
  auto id = app_.instantiate("EchoServer", "e1", node_a_, Value{});
  ASSERT_TRUE(id.ok());
  component::Component* comp = app_.find_component(id.value());
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->lifecycle(), component::LifecycleState::kActive);
  EXPECT_EQ(app_.placement(id.value()), node_a_);
  EXPECT_EQ(app_.component_id("e1"), id.value());
}

TEST_F(ApplicationTest, DuplicateInstanceNameRejected) {
  ASSERT_TRUE(app_.instantiate("EchoServer", "e1", node_a_, Value{}).ok());
  EXPECT_EQ(app_.instantiate("EchoServer", "e1", node_a_, Value{}).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(ApplicationTest, UnknownTypeRejected) {
  EXPECT_EQ(app_.instantiate("Ghost", "g", node_a_, Value{}).code(),
            ErrorCode::kNotFound);
}

TEST_F(ApplicationTest, SyncInvokeRoundTrip) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  auto outcome = app_.invoke_sync(
      conn, "echo", Value::object({{"text", "hello"}}), node_b_);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
  EXPECT_EQ(outcome.result.value().as_string(), "hello");
  // 1 ms each way plus processing on a 10000-unit node.
  EXPECT_GE(outcome.latency, 2000);
  EXPECT_EQ(app_.total_calls(), 1u);
}

TEST_F(ApplicationTest, AsyncInvokeDeliversViaEvents) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  bool done = false;
  app_.invoke_async(conn, "echo", Value::object({{"text", "x"}}), node_b_,
                    [&](util::Result<Value> result, util::Duration latency) {
                      done = true;
                      ASSERT_TRUE(result.ok());
                      EXPECT_EQ(result.value().as_string(), "x");
                      EXPECT_GT(latency, 0);
                    });
  EXPECT_FALSE(done);  // nothing happens until the loop runs
  loop_.run();
  EXPECT_TRUE(done);
}

TEST_F(ApplicationTest, AsyncLatencyIncludesQueueing) {
  // Saturate the slow node and observe growing latencies.
  const auto conn = direct_to("EchoServer", "slow", node_c_);
  std::vector<util::Duration> latencies;
  for (int i = 0; i < 10; ++i) {
    app_.invoke_async(conn, "echo", Value::object({{"text", "x"}}), node_b_,
                      [&](util::Result<Value> result, util::Duration l) {
                        ASSERT_TRUE(result.ok());
                        latencies.push_back(l);
                      });
  }
  loop_.run();
  ASSERT_EQ(latencies.size(), 10u);
  EXPECT_GT(latencies.back(), latencies.front());
}

TEST_F(ApplicationTest, EventsAreOneWay) {
  const auto conn = direct_to("CounterServer", "c1", node_a_);
  EXPECT_TRUE(app_.send_event(conn, "add", Value::object({{"amount", 5}}),
                              node_b_)
                  .ok());
  loop_.run();
  auto* counter = dynamic_cast<aars::testing::CounterServer*>(
      app_.find_component(app_.component_id("c1")));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->total(), 5);
}

TEST_F(ApplicationTest, NestedCallThroughBoundPort) {
  const auto conn = direct_to("EchoServer", "server", node_a_);
  const auto to_client = direct_to("EchoClient", "client", node_b_);
  const auto client_id = app_.component_id("client");
  ASSERT_TRUE(app_.bind(client_id, "out", conn).ok());
  EXPECT_EQ(app_.binding(client_id, "out"), conn);
  auto outcome = app_.invoke_sync(to_client, "go",
                                  Value::object({{"text", "nested"}}), node_b_);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
  EXPECT_EQ(outcome.result.value().as_string(), "nested");
}

TEST_F(ApplicationTest, BindToUnknownPortRejected) {
  const auto conn = direct_to("EchoServer", "server", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_b_, Value{});
  EXPECT_EQ(app_.bind(client.value(), "ghost", conn).code(),
            ErrorCode::kNotFound);
}

TEST_F(ApplicationTest, BindInterfaceMismatchRejected) {
  const auto conn = direct_to("CounterServer", "counter", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_b_, Value{});
  const auto status = app_.bind(client.value(), "out", conn);
  EXPECT_EQ(status.code(), ErrorCode::kIncompatible);
}

TEST_F(ApplicationTest, AddProviderChecksBoundPorts) {
  connector::ConnectorSpec spec;
  spec.name = "rr";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  auto conn = app_.create_connector(spec);
  ASSERT_TRUE(conn.ok());
  auto echo = app_.instantiate("EchoServer", "e", node_a_, Value{});
  ASSERT_TRUE(app_.add_provider(conn.value(), echo.value()).ok());
  auto client = app_.instantiate("EchoClient", "client", node_b_, Value{});
  ASSERT_TRUE(app_.bind(client.value(), "out", conn.value()).ok());
  // A counter does not satisfy the bound Echo port.
  auto counter = app_.instantiate("CounterServer", "c", node_a_, Value{});
  EXPECT_EQ(app_.add_provider(conn.value(), counter.value()).code(),
            ErrorCode::kIncompatible);
}

TEST_F(ApplicationTest, RoundRobinSpreadsLoad) {
  connector::ConnectorSpec spec;
  spec.name = "rr";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  auto conn = app_.create_connector(spec);
  auto e1 = app_.instantiate("CounterServer", "c1", node_a_, Value{});
  auto e2 = app_.instantiate("CounterServer", "c2", node_b_, Value{});
  ASSERT_TRUE(app_.add_provider(conn.value(), e1.value()).ok());
  ASSERT_TRUE(app_.add_provider(conn.value(), e2.value()).ok());
  for (int i = 0; i < 10; ++i) {
    (void)app_.send_event(conn.value(), "add",
                          Value::object({{"amount", 1}}), node_c_);
  }
  loop_.run();
  auto total = [&](const std::string& name) {
    return dynamic_cast<aars::testing::CounterServer*>(
               app_.find_component(app_.component_id(name)))
        ->total();
  };
  EXPECT_EQ(total("c1"), 5);
  EXPECT_EQ(total("c2"), 5);
}

TEST_F(ApplicationTest, BroadcastReachesAllProviders) {
  connector::ConnectorSpec spec;
  spec.name = "bc";
  spec.routing = connector::RoutingPolicy::kBroadcast;
  auto conn = app_.create_connector(spec);
  auto e1 = app_.instantiate("CounterServer", "c1", node_a_, Value{});
  auto e2 = app_.instantiate("CounterServer", "c2", node_b_, Value{});
  ASSERT_TRUE(app_.add_provider(conn.value(), e1.value()).ok());
  ASSERT_TRUE(app_.add_provider(conn.value(), e2.value()).ok());
  (void)app_.send_event(conn.value(), "add", Value::object({{"amount", 3}}),
                        node_c_);
  loop_.run();
  auto total = [&](const std::string& name) {
    return dynamic_cast<aars::testing::CounterServer*>(
               app_.find_component(app_.component_id(name)))
        ->total();
  };
  EXPECT_EQ(total("c1"), 3);
  EXPECT_EQ(total("c2"), 3);
}

TEST_F(ApplicationTest, BlockedChannelHoldsAndReplays) {
  const auto conn = direct_to("CounterServer", "c1", node_a_);
  const auto target = app_.component_id("c1");
  // Prime the channel so block_channels_to sees it.
  (void)app_.send_event(conn, "add", Value::object({{"amount", 1}}), node_b_);
  loop_.run();
  ASSERT_TRUE(app_.block_channels_to(target).ok());
  (void)app_.send_event(conn, "add", Value::object({{"amount", 10}}),
                        node_b_);
  loop_.run();
  EXPECT_EQ(app_.held_to(target), 1u);
  auto* counter = dynamic_cast<aars::testing::CounterServer*>(
      app_.find_component(target));
  EXPECT_EQ(counter->total(), 1);  // held message not yet delivered
  ASSERT_TRUE(app_.unblock_channels_to(target).ok());
  EXPECT_EQ(app_.replay_held(target), 1u);
  loop_.run();
  EXPECT_EQ(counter->total(), 11);
  EXPECT_EQ(app_.messages_dropped(), 0u);
  EXPECT_EQ(app_.messages_duplicated(), 0u);
}

TEST_F(ApplicationTest, AChannelOpenedDuringABlockStartsBlocked) {
  // The block lands before any relay has opened a channel to c1, so the
  // channel the first relay opens must start blocked.
  const auto conn = direct_to("CounterServer", "c1", node_a_);
  const auto target = app_.component_id("c1");
  ASSERT_TRUE(app_.block_channels_to(target).ok());
  std::vector<std::int64_t> totals;
  for (int amount : {1, 2, 3}) {
    app_.invoke_async(conn, "add", Value::object({{"amount", amount}}),
                      node_b_,
                      [&](util::Result<Value> result, util::Duration) {
                        ASSERT_TRUE(result.ok());
                        totals.push_back(result.value().as_int());
                      });
  }
  loop_.run();
  EXPECT_EQ(app_.held_to(target), 3u);
  EXPECT_EQ(app_.in_flight_to(target), 0u);
  EXPECT_TRUE(totals.empty());
  ASSERT_TRUE(app_.unblock_channels_to(target).ok());
  EXPECT_EQ(app_.replay_held(target), 3u);
  loop_.run();
  // Replayed in the order sent: the running totals read 1, 3, 6.
  EXPECT_EQ(totals, (std::vector<std::int64_t>{1, 3, 6}));
  EXPECT_EQ(app_.messages_dropped(), 0u);
}

TEST_F(ApplicationTest, ARedirectCarriesTheBlockToTheSuccessor) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");
  ASSERT_TRUE(app_.block_channels_to(old_id).ok());
  auto successor = app_.instantiate("CounterServer", "new", node_a_, Value{});
  ASSERT_TRUE(successor.ok());
  ASSERT_TRUE(app_.redirect(old_id, successor.value()).ok());
  // No channel existed to move: the block itself moved to the successor.
  (void)app_.send_event(conn, "add", Value::object({{"amount", 4}}), node_b_);
  loop_.run();
  EXPECT_EQ(app_.held_to(successor.value()), 1u);
  ASSERT_TRUE(app_.unblock_channels_to(successor.value()).ok());
  EXPECT_EQ(app_.replay_held(successor.value()), 1u);
  loop_.run();
  EXPECT_EQ(dynamic_cast<aars::testing::CounterServer*>(
                app_.find_component(successor.value()))
                ->total(),
            4);
}

TEST_F(ApplicationTest, WhenDrainedFiresAfterInFlight) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  const auto target = app_.component_id("e1");
  app_.invoke_async(conn, "ping", Value{}, node_b_,
                    [](util::Result<Value>, util::Duration) {});
  EXPECT_EQ(app_.in_flight_to(target), 1u);
  bool drained = false;
  app_.when_drained(target, [&] { drained = true; });
  EXPECT_FALSE(drained);
  loop_.run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(app_.in_flight_to(target), 0u);
}

TEST_F(ApplicationTest, RedirectMovesProvidersChannelsAndBindings) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");
  (void)app_.send_event(conn, "add", Value::object({{"amount", 2}}), node_b_);
  loop_.run();
  auto new_id = app_.instantiate("CounterServer", "new", node_a_, Value{});
  ASSERT_TRUE(new_id.ok());
  ASSERT_TRUE(app_.redirect(old_id, new_id.value()).ok());
  // Connector now routes to the replacement.
  (void)app_.send_event(conn, "add", Value::object({{"amount", 5}}), node_b_);
  loop_.run();
  auto* replacement = dynamic_cast<aars::testing::CounterServer*>(
      app_.find_component(new_id.value()));
  EXPECT_EQ(replacement->total(), 5);
  // Channel sequence numbering carried over (no restart at 1).
  Channel& chan = app_.channel(conn, new_id.value());
  EXPECT_EQ(chan.sent(), 2u);
}

TEST_F(ApplicationTest, RefusedRedirectChangesNothing) {
  // `server` and `standby` both serve the round-robin `pool`, so moving
  // `server` onto `standby` would attach `standby` to `pool` twice.  The
  // redirect must refuse before it touches any connector, channel or
  // binding.
  const auto echo = direct_to("EchoServer", "echo", node_a_);
  const auto trigger = direct_to("EchoClient", "server", node_a_);
  const auto server = app_.component_id("server");
  auto standby = app_.instantiate("EchoClient", "standby", node_b_, Value{});
  ASSERT_TRUE(standby.ok());
  ASSERT_TRUE(app_.bind(server, "out", echo).ok());
  ASSERT_TRUE(app_.bind(standby.value(), "out", echo).ok());
  connector::ConnectorSpec spec;
  spec.name = "pool";
  spec.routing = connector::RoutingPolicy::kRoundRobin;
  const auto pool = app_.create_connector(spec).value();
  ASSERT_TRUE(app_.add_provider(pool, server).ok());
  ASSERT_TRUE(app_.add_provider(pool, standby.value()).ok());
  const Value args = Value::object({{"text", "hi"}});
  ASSERT_TRUE(app_.invoke_sync(trigger, "go", args, node_c_).result.ok());
  const std::size_t server_channels = app_.channels_to(server).size();

  const Status refused = app_.redirect(server, standby.value());
  EXPECT_EQ(refused.code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(refused.error().message(), "pool: provider already attached");
  EXPECT_EQ(app_.find_connector(pool)->providers(),
            (std::vector<ComponentId>{server, standby.value()}));
  EXPECT_EQ(app_.find_connector(trigger)->providers(),
            std::vector<ComponentId>{server});
  EXPECT_EQ(app_.channels_to(server).size(), server_channels);
  EXPECT_EQ(app_.channel(trigger, server).sent(), 1u);
  EXPECT_EQ(app_.binding(server, "out"), echo);

  std::vector<ComponentId> served;
  app_.add_call_listener([&](const CallRecord& r) {
    if (r.connector == pool) served.push_back(r.provider);
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(app_.invoke_sync(pool, "go", args, node_c_).result.ok());
  }
  EXPECT_EQ(served, (std::vector<ComponentId>{server, standby.value(), server,
                                              standby.value()}));
}

TEST_F(ApplicationTest, DestroyRequiresDrainedChannels) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  const auto id = app_.component_id("e1");
  app_.invoke_async(conn, "ping", Value{}, node_b_,
                    [](util::Result<Value>, util::Duration) {});
  EXPECT_EQ(app_.destroy(id).code(), ErrorCode::kNotQuiescent);
  loop_.run();
  EXPECT_TRUE(app_.destroy(id).ok());
  EXPECT_EQ(app_.find_component(id), nullptr);
}

TEST_F(ApplicationTest, MigrateChangesPlacement) {
  auto id = app_.instantiate("EchoServer", "e1", node_a_, Value{});
  ASSERT_TRUE(app_.migrate(id.value(), node_b_).ok());
  EXPECT_EQ(app_.placement(id.value()), node_b_);
}

TEST_F(ApplicationTest, SnapshotRequiresQuiescence) {
  auto id = app_.instantiate("CounterServer", "c1", node_a_, Value{});
  auto snap = app_.snapshot_component(id.value());
  EXPECT_TRUE(snap.ok());
}

TEST_F(ApplicationTest, CallListenersObserveEveryCall) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  std::vector<CallRecord> records;
  app_.add_call_listener([&](const CallRecord& r) { records.push_back(r); });
  (void)app_.invoke_sync(conn, "ping", Value{}, node_b_);
  (void)app_.invoke_sync(conn, "nonexistent", Value{}, node_b_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_FALSE(records[1].ok);
  EXPECT_EQ(records[0].operation, "ping");
  EXPECT_EQ(app_.failed_calls(), 1u);
}

TEST_F(ApplicationTest, RemoveConnectorCleansBindings) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_b_, Value{});
  ASSERT_TRUE(app_.bind(client.value(), "out", conn).ok());
  ASSERT_TRUE(app_.remove_connector(conn).ok());
  EXPECT_EQ(app_.find_connector(conn), nullptr);
  EXPECT_FALSE(app_.binding(client.value(), "out").valid());
}

TEST_F(ApplicationTest, PassivatedProviderFailsCalls) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  ASSERT_TRUE(app_.passivate_component(app_.component_id("e1")).ok());
  auto outcome = app_.invoke_sync(conn, "ping", Value{}, node_b_);
  EXPECT_FALSE(outcome.result.ok());
  EXPECT_EQ(outcome.result.error().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(app_.activate_component(app_.component_id("e1")).ok());
  EXPECT_TRUE(app_.invoke_sync(conn, "ping", Value{}, node_b_).result.ok());
}

TEST_F(ApplicationTest, WorkScaleHeaderMultipliesCost) {
  const auto conn = direct_to("EchoServer", "e1", node_c_);  // slow node
  bool first_done = false;
  util::Duration slow_latency = 0;
  util::Duration fast_latency = 0;
  app_.invoke_async(
      conn, "echo", Value::object({{"text", "x"}}), node_b_,
      [&](util::Result<Value> r, util::Duration l) {
        ASSERT_TRUE(r.ok());
        fast_latency = l;
        first_done = true;
      },
      component::Control{.work_scale = 1.0});
  loop_.run();
  ASSERT_TRUE(first_done);
  app_.invoke_async(
      conn, "echo", Value::object({{"text", "x"}}), node_b_,
      [&](util::Result<Value> r, util::Duration l) {
        ASSERT_TRUE(r.ok());
        slow_latency = l;
      },
      component::Control{.work_scale = 50.0});
  loop_.run();
  EXPECT_GT(slow_latency, fast_latency);
}

TEST_F(ApplicationTest, ConfigBoundsChannelHoldAndAuditWindow) {
  Application::Config config;
  config.channel_hold_limit = 3;
  config.channel_audit_window = 8;
  Application app(loop_, network_, registry_, config);
  auto comp = app.instantiate("EchoServer", "e1", node_a_, Value{});
  ASSERT_TRUE(comp.ok());
  connector::ConnectorSpec spec;
  spec.name = "to_e1";
  spec.queue_capacity = 64;  // the legacy bound the explicit limit overrides
  auto conn = app.create_connector(spec);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(app.add_provider(conn.value(), comp.value()).ok());
  Channel& chan = app.channel(conn.value(), comp.value());
  EXPECT_EQ(chan.hold_limit(), 3u);
  EXPECT_EQ(chan.audit_window(), 8u);

  // Overflow regression: with the channel blocked, same-priority traffic
  // beyond the bound is refused (kOverloaded) instead of growing the
  // buffer.
  ASSERT_TRUE(app.block_channels_to(comp.value()).ok());
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    app.invoke_async(conn.value(), "echo", Value::object({{"text", "x"}}),
                     node_b_,
                     [&](util::Result<Value> result, util::Duration) {
                       if (!result.ok()) ++rejected;
                     });
  }
  loop_.run();
  EXPECT_EQ(chan.held_count(), 3u);
  EXPECT_GE(chan.hold_overflows(), 2u);
  EXPECT_EQ(rejected, 2);
}

TEST_F(ApplicationTest, DefaultConfigSizesHoldBufferFromConnectorQueue) {
  const auto conn = direct_to("EchoServer", "e1", node_a_);
  Channel& chan = app_.channel(conn, app_.component_id("e1"));
  // channel_hold_limit 0 keeps the per-connector queue_capacity rule.
  EXPECT_EQ(chan.hold_limit(), app_.find_connector(conn)->spec().queue_capacity);
  EXPECT_EQ(chan.audit_window(), Channel::kAuditWindow);
}

// --- the one call exit --------------------------------------------------------

/// Records the outcome every after() sees; blocks, or forces a target
/// through control.route_to, when told to.
class ExitCounter : public connector::Interceptor {
 public:
  Verdict before(component::Message& request, util::Result<Value>*) override {
    if (force.valid()) request.control.route_to = force;
    return block ? Verdict::kBlock : Verdict::kPass;
  }
  void after(const component::Message&, util::Result<Value>& reply) override {
    afters.push_back(reply.code());
  }
  std::string name() const override { return "exit_counter"; }

  bool block = false;
  ComponentId force;
  std::vector<ErrorCode> afters;
};

/// One connector, `svc`, from host `client` to a counter `p` on host
/// `server`, with an ExitCounter on it and a hold buffer of one message.
struct ExitWorld {
  explicit ExitWorld(connector::RoutingPolicy routing)
      : app(loop, network, registry, Application::Config{.channel_hold_limit = 1}) {
    client = network.add_node("client", 10000).id();
    server = network.add_node("server", 10000).id();
    network.add_duplex_link(client, server, sim::LinkSpec{});
    registry.register_type("CounterServer", [](const std::string& name) {
      return std::make_unique<aars::testing::CounterServer>(name);
    });
    provider = app.instantiate("CounterServer", "p", server, Value{}).value();
    connector::ConnectorSpec spec;
    spec.name = "svc";
    spec.routing = routing;
    conn = app.create_connector(spec).value();
    EXPECT_TRUE(app.add_provider(conn, provider).ok());
    EXPECT_TRUE(app.find_connector(conn)->attach_interceptor(counter).ok());
    app.add_call_listener(
        [this](const CallRecord& record) { records.push_back(record); });
  }

  /// Points `svc` at an id that names no component.
  void route_to_a_ghost() {
    connector::Connector* svc = app.find_connector(conn);
    ASSERT_TRUE(svc->remove_provider(provider).ok());
    ASSERT_TRUE(svc->add_provider(ComponentId{999}).ok());
  }

  /// An event of `priority` from the client; a kHigh one fills the buffer
  /// of a blocked channel for good.
  void send(Priority priority) {
    (void)app.send_event(conn, "add", Value::object({{"amount", 1}}), client,
                         component::Control{.priority = priority});
  }

  sim::EventLoop loop;
  sim::Network network;
  component::ComponentRegistry registry;
  Application app;
  NodeId client;
  NodeId server;
  ComponentId provider;
  ConnectorId conn;
  std::shared_ptr<ExitCounter> counter = std::make_shared<ExitCounter>();
  std::vector<CallRecord> records;
};

enum class Timing { kRequest, kEvent, kInLine };

/// One way out of the pipeline: how to steer a call there and the code it
/// finishes with.  `arrange` runs before the call is sent, `meanwhile`
/// after it is sent and before the loop runs.
struct Exit {
  const char* name;
  ErrorCode code;
  std::vector<Timing> timings;
  connector::RoutingPolicy routing = connector::RoutingPolicy::kDirect;
  Priority priority = Priority::kNormal;
  std::function<void(ExitWorld&)> arrange = [](ExitWorld&) {};
  std::function<void(ExitWorld&)> meanwhile = [](ExitWorld&) {};
};

std::vector<Exit> exits() {
  using T = Timing;
  std::vector<Exit> out;
  out.push_back({.name = "interceptor short-circuit",
                 .code = ErrorCode::kRejected,
                 .timings = {T::kRequest, T::kEvent, T::kInLine},
                 .arrange = [](ExitWorld& w) { w.counter->block = true; }});
  out.push_back({.name = "forced target missing",
                 .code = ErrorCode::kNotFound,
                 .timings = {T::kRequest, T::kEvent, T::kInLine},
                 .arrange = [](ExitWorld& w) {
                   w.counter->force = ComponentId{999};
                 }});
  out.push_back({.name = "request over broadcast",
                 .code = ErrorCode::kInvalidArgument,
                 .timings = {T::kRequest, T::kInLine},
                 .routing = connector::RoutingPolicy::kBroadcast});
  out.push_back({.name = "no provider",
                 .code = ErrorCode::kUnavailable,
                 .timings = {T::kRequest, T::kEvent, T::kInLine},
                 .arrange = [](ExitWorld& w) {
                   ASSERT_TRUE(w.app.remove_provider(w.conn, w.provider).ok());
                 }});
  out.push_back({.name = "broadcast to no provider",
                 .code = ErrorCode::kUnavailable,
                 .timings = {T::kEvent},
                 .routing = connector::RoutingPolicy::kBroadcast,
                 .arrange = [](ExitWorld& w) {
                   ASSERT_TRUE(w.app.remove_provider(w.conn, w.provider).ok());
                 }});
  out.push_back({.name = "hold overflow",
                 .code = ErrorCode::kOverloaded,
                 .timings = {T::kRequest, T::kEvent},
                 .arrange = [](ExitWorld& w) {
                   ASSERT_TRUE(w.app.block_channels_to(w.provider).ok());
                   w.send(Priority::kHigh);
                 }});
  out.push_back({.name = "held message rejected",
                 .code = ErrorCode::kOverloaded,
                 .timings = {T::kRequest, T::kEvent},
                 .priority = Priority::kBestEffort,
                 .arrange = [](ExitWorld& w) {
                   ASSERT_TRUE(w.app.block_channels_to(w.provider).ok());
                 },
                 .meanwhile = [](ExitWorld& w) { w.send(Priority::kHigh); }});
  out.push_back({.name = "channel blocked",
                 .code = ErrorCode::kUnavailable,
                 .timings = {T::kInLine},
                 .arrange = [](ExitWorld& w) {
                   ASSERT_TRUE(w.app.block_channels_to(w.provider).ok());
                 }});
  out.push_back({.name = "no placement",
                 .code = ErrorCode::kUnavailable,
                 .timings = {T::kRequest, T::kEvent},
                 .arrange = [](ExitWorld& w) { w.route_to_a_ghost(); }});
  out.push_back({.name = "network loss",
                 .code = ErrorCode::kTimeout,
                 .timings = {T::kRequest, T::kEvent, T::kInLine},
                 .arrange = [](ExitWorld& w) {
                   w.network.find_link(w.client, w.server)->loss_probability =
                       1.0;
                 }});
  out.push_back({.name = "provider removed",
                 .code = ErrorCode::kUnavailable,
                 .timings = {T::kInLine},
                 .arrange = [](ExitWorld& w) { w.route_to_a_ghost(); }});
  out.push_back(
      {.name = "provider removed on arrival",
       .code = ErrorCode::kUnavailable,
       .timings = {T::kRequest, T::kEvent},
       .meanwhile = [](ExitWorld& w) {
         // The call is in transit: its channel moves to a successor and
         // the provider it was sent to goes.
         auto successor =
             w.app.instantiate("CounterServer", "q", w.server, Value{});
         ASSERT_TRUE(successor.ok());
         ASSERT_TRUE(w.app.redirect(w.provider, successor.value()).ok());
         ASSERT_TRUE(w.app.destroy(w.provider).ok());
       }});
  out.push_back({.name = "success",
                 .code = ErrorCode::kOk,
                 .timings = {T::kRequest, T::kEvent, T::kInLine}});
  return out;
}

/// Drives one call of `timing` out of `exit` in a fresh world and checks
/// that it leaves once: one after() carrying the call's outcome, one count,
/// one call record, one reply.
void expect_one_exit(Timing timing, const Exit& exit) {
  SCOPED_TRACE(exit.name);
  ExitWorld w(exit.routing);
  exit.arrange(w);
  const std::size_t afters = w.counter->afters.size();
  const std::uint64_t calls = w.app.total_calls();
  const std::uint64_t failed = w.app.failed_calls();
  std::vector<ErrorCode> replies;
  switch (timing) {
    case Timing::kRequest:
      w.app.invoke_async(
          w.conn, "add", Value::object({{"amount", 1}}), w.client,
          [&replies](util::Result<Value> result, util::Duration) {
            replies.push_back(result.code());
          },
          component::Control{.priority = exit.priority});
      break;
    case Timing::kEvent:
      w.send(exit.priority);
      break;
    case Timing::kInLine:
      replies.push_back(
          w.app.invoke_sync(w.conn, "add", Value::object({{"amount", 1}}),
                            w.client)
              .result.code());
      break;
  }
  exit.meanwhile(w);
  w.loop.run();
  const bool ok = exit.code == ErrorCode::kOk;
  ASSERT_EQ(w.counter->afters.size(), afters + 1);
  EXPECT_EQ(w.counter->afters.back(), exit.code);
  EXPECT_EQ(w.app.total_calls(), calls + 1);
  EXPECT_EQ(w.app.failed_calls(), failed + (ok ? 0 : 1));
  ASSERT_EQ(w.records.size(), 1u);
  EXPECT_EQ(w.records.back().ok, ok);
  if (timing == Timing::kEvent) {
    EXPECT_TRUE(replies.empty());
  } else {
    EXPECT_EQ(replies, std::vector<ErrorCode>{exit.code});
  }
}

void expect_one_exit_each(Timing timing) {
  for (const Exit& exit : exits()) {
    if (std::find(exit.timings.begin(), exit.timings.end(), timing) !=
        exit.timings.end()) {
      expect_one_exit(timing, exit);
    }
  }
}

TEST(OneExitTest, EveryRequestExitRunsAfterOnceAndCountsTheCallOnce) {
  expect_one_exit_each(Timing::kRequest);
}

TEST(OneExitTest, EveryEventExitRunsAfterOnceAndCountsTheCallOnce) {
  expect_one_exit_each(Timing::kEvent);
}

TEST(OneExitTest, EveryInLineExitRunsAfterOnceAndCountsTheCallOnce) {
  expect_one_exit_each(Timing::kInLine);
}

}  // namespace
}  // namespace aars::runtime
