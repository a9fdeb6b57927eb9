#include "reconfig/engine.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "fault/injector.h"
#include "fault/scenario.h"
#include "obs/metrics.h"
#include "reconfig/txn.h"
#include "testing/test_components.h"

namespace aars::reconfig {
namespace {

using aars::testing::AppFixture;
using aars::testing::CounterServer;
using util::ErrorCode;
using util::Value;

class EngineTest : public AppFixture {
 protected:
  EngineTest() : engine_(app_) {}
  ReconfigurationEngine engine_;
};

TEST_F(EngineTest, AddComponentWrapper) {
  auto id = engine_.add_component("EchoServer", "e1", node_a_, Value{});
  ASSERT_TRUE(id.ok());
  EXPECT_NE(app_.find_component(id.value()), nullptr);
}

TEST_F(EngineTest, StrongReplacePreservesStateAndBindings) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");
  // Build some state.
  for (int i = 0; i < 5; ++i) {
    (void)app_.send_event(conn, "add", Value::object({{"amount", 10}}),
                          node_b_);
  }
  loop_.run();

  bool done = false;
  ReconfigReport report;
  engine_.replace_component(old_id, "CounterServer", "new",
                            [&](const ReconfigReport& r) {
                              done = true;
                              report = r;
                            });
  loop_.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_TRUE(report.new_component.valid());
  // Old gone, new carries the state.
  EXPECT_EQ(app_.find_component(old_id), nullptr);
  auto* replacement = dynamic_cast<CounterServer*>(
      app_.find_component(report.new_component));
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->total(), 50);
  // The connector serves through the replacement.
  auto outcome = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(outcome.result.value().as_int(), 50);
}

TEST_F(EngineTest, ReplaceUnderLoadLosesNothing) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");

  // Open-loop event stream during the swap.
  int sent = 0;
  std::function<void()> pump = [&] {
    if (sent >= 200) return;
    ++sent;
    (void)app_.send_event(conn, "add", Value::object({{"amount", 1}}),
                          node_b_);
    loop_.schedule_after(util::microseconds(200), pump);
  };
  loop_.schedule_after(0, pump);

  ReconfigReport report;
  bool done = false;
  loop_.schedule_after(util::milliseconds(10), [&] {
    engine_.replace_component(old_id, "CounterServer", "new",
                              [&](const ReconfigReport& r) {
                                report = r;
                                done = true;
                              });
  });
  loop_.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok()) << report.error_message();
  // Every event must be accounted: none lost, none duplicated.
  EXPECT_EQ(app_.messages_dropped(), 0u);
  EXPECT_EQ(app_.messages_duplicated(), 0u);
  auto* replacement = dynamic_cast<CounterServer*>(
      app_.find_component(report.new_component));
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->total(), sent);
}

TEST_F(EngineTest, ReplaceUnknownComponentFails) {
  ReconfigReport report;
  engine_.replace_component(util::ComponentId{999}, "CounterServer", "new",
                            [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.error_message().empty());
}

TEST_F(EngineTest, ReplaceWithUnknownTypeRollsBack) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");
  (void)app_.send_event(conn, "add", Value::object({{"amount", 3}}), node_b_);
  loop_.run();

  ReconfigReport report;
  engine_.replace_component(old_id, "GhostType", "new",
                            [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_FALSE(report.ok());
  // The old component is live again and serving.
  auto outcome = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
  EXPECT_EQ(outcome.result.value().as_int(), 3);
}

TEST_F(EngineTest, RemoveComponentDrainsFirst) {
  const auto conn = direct_to("CounterServer", "victim", node_a_);
  const auto id = app_.component_id("victim");
  (void)app_.send_event(conn, "add", Value::object({{"amount", 1}}), node_b_);
  bool done = false;
  ReconfigReport report;
  engine_.remove_component(id, [&](const ReconfigReport& r) {
    done = true;
    report = r;
  });
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(app_.find_component(id), nullptr);
  // The in-flight message was delivered before removal, not dropped.
  EXPECT_EQ(app_.messages_dropped(), 0u);
}

// A request held towards the component being removed fails through the
// call's one exit: its callback fires with the relay's "provider removed"
// and the call counts once, as failed.
TEST_F(EngineTest, RemoveRejectsHeldRequestsThroughTheOneExit) {
  const auto conn = direct_to("CounterServer", "victim", node_a_);
  const auto id = app_.component_id("victim");
  std::vector<util::Result<Value>> replies;
  const auto on_reply = [&](util::Result<Value> reply, util::Duration) {
    replies.push_back(std::move(reply));
  };
  const auto add = Value::object({{"amount", std::int64_t{1}}});
  // In flight when the removal starts, so the drain waits for it.
  app_.invoke_async(conn, "add", add, node_b_, on_reply);
  bool done = false;
  ReconfigReport report;
  engine_.remove_component(id, [&](const ReconfigReport& r) {
    done = true;
    report = r;
  });
  // Sent once the removal blocked the channel: held.
  app_.invoke_async(conn, "add", add, node_b_, on_reply);
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report.held_messages, 1u);
  ASSERT_EQ(replies.size(), 2u);
  std::size_t failed = 0;
  for (const util::Result<Value>& reply : replies) {
    if (reply.ok()) continue;
    ++failed;
    EXPECT_EQ(reply.error().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(reply.error().message(), "provider removed");
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(app_.total_calls(), 2u);
  EXPECT_EQ(app_.failed_calls(), 1u);
}

TEST_F(EngineTest, RebindPointsPortAtNewConnector) {
  const auto conn_a = direct_to("EchoServer", "a", node_a_);
  const auto conn_b = direct_to("EchoServer", "b", node_b_);
  auto client = app_.instantiate("EchoClient", "client", node_c_, Value{});
  ASSERT_TRUE(app_.bind(client.value(), "out", conn_a).ok());
  ASSERT_TRUE(engine_.rebind(client.value(), "out", conn_b).ok());
  EXPECT_EQ(app_.binding(client.value(), "out"), conn_b);
}

TEST_F(EngineTest, RebindValidatesCompatibility) {
  const auto counter_conn = direct_to("CounterServer", "c", node_a_);
  const auto echo_conn = direct_to("EchoServer", "e", node_a_);
  auto client = app_.instantiate("EchoClient", "client", node_c_, Value{});
  ASSERT_TRUE(app_.bind(client.value(), "out", echo_conn).ok());
  EXPECT_EQ(engine_.rebind(client.value(), "out", counter_conn).code(),
            ErrorCode::kIncompatible);
  EXPECT_EQ(app_.binding(client.value(), "out"), echo_conn);
}

TEST_F(EngineTest, MigrationMovesComponentAndReplaysTraffic) {
  const auto conn = direct_to("CounterServer", "mover", node_a_);
  const auto id = app_.component_id("mover");
  (void)app_.send_event(conn, "add", Value::object({{"amount", 1}}), node_b_);
  loop_.run();

  ReconfigReport report;
  bool done = false;
  engine_.migrate_component(id, node_b_, [&](const ReconfigReport& r) {
    report = r;
    done = true;
  });
  // Traffic arriving during migration is held and replayed.
  (void)app_.send_event(conn, "add", Value::object({{"amount", 5}}), node_b_);
  loop_.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(app_.placement(id), node_b_);
  auto* counter = dynamic_cast<CounterServer*>(app_.find_component(id));
  EXPECT_EQ(counter->total(), 6);
  EXPECT_GT(report.duration(), 0);
}

TEST_F(EngineTest, MigrationToUnreachableNodeAborts) {
  // node_d is isolated (no links).
  const auto node_d = network_.add_node("island", 1000).id();
  const auto conn = direct_to("CounterServer", "mover", node_a_);
  const auto id = app_.component_id("mover");
  ReconfigReport report;
  engine_.migrate_component(id, node_d,
                            [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(app_.placement(id), node_a_);
  // Still serving in place.
  EXPECT_TRUE(app_.invoke_sync(conn, "total", Value{}, node_b_).result.ok());
}

TEST_F(EngineTest, MigrationToSameNodeIsNoop) {
  const auto id =
      app_.instantiate("EchoServer", "e", node_a_, Value{}).value();
  ReconfigReport report;
  engine_.migrate_component(id, node_a_,
                            [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.duration(), 0);
}

TEST_F(EngineTest, CountersTrackRuns) {
  const auto id =
      app_.instantiate("CounterServer", "c", node_a_, Value{}).value();
  engine_.replace_component(id, "CounterServer", "c2",
                            [](const ReconfigReport&) {});
  loop_.run();
  EXPECT_EQ(engine_.started(), 1u);
  EXPECT_EQ(engine_.succeeded(), 1u);
}

TEST_F(EngineTest, RedeployMovesComponentAndPreservesState) {
  const auto conn = direct_to("CounterServer", "c", node_a_);
  const auto id = app_.component_id("c");
  ASSERT_TRUE(app_
                  .invoke_sync(conn, "add",
                               Value::object({{"amount", std::int64_t{5}}}),
                               node_b_)
                  .result.ok());

  ReconfigReport report;
  engine_.redeploy_component(id, node_c_,
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();

  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_NE(report.new_component, id);
  EXPECT_EQ(app_.placement(report.new_component), node_c_);
  EXPECT_EQ(app_.find_component(id), nullptr);  // failed instance removed
  // Same connector now serves the replacement with the transferred state.
  auto total = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(total.result.ok());
  EXPECT_EQ(total.result.value().as_int(), 5);
}

TEST_F(EngineTest, RedeployToCurrentHostIsANoop) {
  const auto id =
      app_.instantiate("CounterServer", "c", node_a_, Value{}).value();
  ReconfigReport report;
  engine_.redeploy_component(id, node_a_,
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.new_component, id);
  EXPECT_NE(app_.find_component(id), nullptr);
}

TEST_F(EngineTest, RedeployUnknownComponentIsNotFound) {
  ReconfigReport report;
  engine_.redeploy_component(util::ComponentId{9999}, node_a_,
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), util::ErrorCode::kNotFound);
}

TEST_F(EngineTest, RerouteToReplicaRedirectsTraffic) {
  const auto conn = direct_to("EchoServer", "primary", node_a_);
  const auto dead = app_.component_id("primary");
  const auto replica =
      app_.instantiate("EchoServer", "replica", node_b_, Value{}).value();

  ReconfigReport report;
  engine_.reroute_to_replica(dead, replica,
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();

  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report.new_component, replica);
  EXPECT_EQ(app_.find_component(dead), nullptr);
  auto out = app_.invoke_sync(conn, "echo",
                              Value::object({{"text", "via replica"}}),
                              node_c_);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.result.value().as_string(), "via replica");
}

TEST_F(EngineTest, RerouteToSelfIsInvalid) {
  const auto id =
      app_.instantiate("EchoServer", "e", node_a_, Value{}).value();
  ReconfigReport report;
  engine_.reroute_to_replica(id, id,
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(app_.find_component(id), nullptr);  // untouched
}

TEST_F(EngineTest, QuiescenceTimeoutRollsBackAndReplaysHeld) {
  ReconfigurationEngine::Options opts;
  opts.quiescence_poll = util::microseconds(100);
  opts.quiescence_timeout = util::milliseconds(5);
  ReconfigurationEngine impatient(app_, opts);

  const auto conn = direct_to("CounterServer", "busy", node_a_);
  const auto id = app_.component_id("busy");
  // Prime the channel so the engine has something to block.
  (void)app_.send_event(conn, "add", Value::object({{"amount", std::int64_t{0}}}),
                        node_b_);
  loop_.run();
  auto* comp = app_.find_component(id);
  ASSERT_NE(comp, nullptr);
  comp->begin_activity();  // a call that never finishes: never quiescent

  ReconfigReport report;
  bool done = false;
  impatient.replace_component(id, "CounterServer", "new",
                              [&](const ReconfigReport& r) {
                                report = r;
                                done = true;
                              });
  // Arrives (~1 ms link latency) while the channel is blocked: held.
  bool replied = false;
  util::Result<Value> reply{Value{}};
  app_.invoke_async(conn, "add", Value::object({{"amount", std::int64_t{2}}}),
                    node_b_, [&](util::Result<Value> r, util::Duration) {
                      replied = true;
                      reply = std::move(r);
                    });
  loop_.run();

  ASSERT_TRUE(done);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), ErrorCode::kNotQuiescent);
  // Rollback unblocked the channels and replayed the held request.
  ASSERT_TRUE(replied);
  ASSERT_TRUE(reply.ok()) << reply.error().message();
  // The original component survived and kept the replayed state.
  comp->end_activity();
  auto total = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(total.result.ok());
  EXPECT_EQ(total.result.value().as_int(), 2);
}

TEST_F(EngineTest, RedeployNamesDoNotCompound) {
  direct_to("CounterServer", "c", node_a_);
  const auto id = app_.component_id("c");

  ReconfigReport first;
  engine_.redeploy_component(id, node_b_,
                             [&](const ReconfigReport& r) { first = r; });
  loop_.run();
  ASSERT_TRUE(first.ok()) << first.error_message();
  const auto* moved = app_.find_component(first.new_component);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->instance_name(), "c_r1");

  // A second repair strips the previous "_r1" before numbering: the name
  // stays "c_r2" instead of compounding into "c_r1_r2".
  ReconfigReport second;
  engine_.redeploy_component(first.new_component, node_c_,
                             [&](const ReconfigReport& r) { second = r; });
  loop_.run();
  ASSERT_TRUE(second.ok()) << second.error_message();
  const auto* moved_again = app_.find_component(second.new_component);
  ASSERT_NE(moved_again, nullptr);
  EXPECT_EQ(moved_again->instance_name(), "c_r2");
}

TEST_F(EngineTest, HoldOverflowDuringQuiescenceAbortsTheSwap) {
  auto comp = app_.instantiate("CounterServer", "tiny", node_a_, Value{});
  ASSERT_TRUE(comp.ok());
  connector::ConnectorSpec spec;
  spec.name = "to_tiny";
  spec.queue_capacity = 2;  // hold buffer caps at two messages
  auto conn = app_.create_connector(spec);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(app_.add_provider(conn.value(), comp.value()).ok());

  // Prime the channel so the engine has something to block.
  (void)app_.send_event(conn.value(), "add",
                        Value::object({{"amount", std::int64_t{0}}}), node_b_);
  loop_.run();

  auto* tiny = app_.find_component(comp.value());
  tiny->begin_activity();  // keep the component busy while traffic piles up

  ReconfigReport report;
  bool done = false;
  engine_.replace_component(comp.value(), "CounterServer", "new",
                            [&](const ReconfigReport& r) {
                              report = r;
                              done = true;
                            });
  // Five same-priority requests against a two-slot hold buffer: three must
  // be refused with kOverloaded at the door.
  int oks = 0;
  int overloaded = 0;
  for (int i = 0; i < 5; ++i) {
    app_.invoke_async(conn.value(), "add",
                      Value::object({{"amount", std::int64_t{1}}}), node_b_,
                      [&](util::Result<Value> r, util::Duration) {
                        if (r.ok()) {
                          ++oks;
                        } else {
                          EXPECT_EQ(r.error().code(), ErrorCode::kOverloaded);
                          ++overloaded;
                        }
                      });
  }
  loop_.schedule_after(util::milliseconds(5), [&] { tiny->end_activity(); });
  loop_.run();

  ASSERT_TRUE(done);
  ASSERT_FALSE(report.ok());
  // The engine noticed the overflow and refused to complete a swap that
  // already shed traffic: abort + rollback instead of pretending the
  // drained state is complete.
  EXPECT_EQ(report.status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(overloaded, 3);
  EXPECT_EQ(oks, 2);  // held requests replayed on rollback
  EXPECT_NE(app_.find_component(comp.value()), nullptr);
}

TEST_F(EngineTest, CrashLandingMidQuiesceRollsBackCleanly) {
  // A host crash arriving while the protocol is still waiting for
  // quiescence: the wait times out (the stalled call never ends), the swap
  // is abandoned and rollback unblocks the channels — no half-replaced
  // component, no channel left blocked.
  ReconfigurationEngine::Options opts;
  opts.quiescence_poll = util::microseconds(100);
  opts.quiescence_timeout = util::milliseconds(5);
  ReconfigurationEngine impatient(app_, opts);

  const auto conn = direct_to("CounterServer", "busy", node_a_);
  const auto id = app_.component_id("busy");
  auto* comp = app_.find_component(id);
  ASSERT_NE(comp, nullptr);
  comp->begin_activity();  // quiescence never arrives

  fault::FaultInjector injector(app_);
  fault::FaultScenario scenario;
  scenario.crash("node_a", util::milliseconds(2), util::milliseconds(20));
  ASSERT_TRUE(injector.arm(scenario).ok());

  ReconfigReport report;
  bool done = false;
  impatient.replace_component(id, "CounterServer", "busy_v2",
                              [&](const ReconfigReport& r) {
                                report = r;
                                done = true;
                              });
  loop_.run();

  ASSERT_TRUE(done);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), ErrorCode::kNotQuiescent);
  // The original survived, the replacement never landed and the channel is
  // usable again once the host heals and the stalled call ends.
  EXPECT_NE(app_.find_component(id), nullptr);
  EXPECT_FALSE(app_.component_id("busy_v2").valid());
  comp->end_activity();
  loop_.run();
  auto total = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(total.result.ok()) << total.result.error().message();
}

TEST_F(EngineTest, ReportStartsUnfinishedUntilTheProtocolCompletes) {
  direct_to("CounterServer", "c", node_a_);
  const auto id = app_.component_id("c");

  // A report that nobody finished must never read as success.
  ReconfigReport unfinished;
  EXPECT_FALSE(unfinished.ok());
  EXPECT_EQ(unfinished.error_message(), "protocol did not complete");

  // Keep the component mid-activity so the remove cannot quiesce — and
  // thus cannot complete — before the loop runs.
  auto* comp = app_.find_component(id);
  ASSERT_NE(comp, nullptr);
  comp->begin_activity();
  loop_.schedule_after(util::milliseconds(1), [comp] { comp->end_activity(); });

  ReconfigReport report;
  bool done = false;
  engine_.remove_component(id, [&](const ReconfigReport& r) {
    report = r;
    done = true;
  });
  // Asynchronous: nothing has happened yet, the captured report still
  // carries the unfinished sentinel.
  EXPECT_FALSE(done);
  EXPECT_FALSE(report.ok());
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.ok()) << report.error_message();
}

TEST_F(EngineTest, ReplaceWithAnIncompatibleTypeIsRefusedAndChangesNothing) {
  // client.out requires Echo through `main`; a CounterServer provides only
  // Counter.  The plan model carries no provided interfaces, so enforced
  // verification passes the step and the redirect must refuse it.
  ReconfigurationEngine::Options options;
  options.verify_mode = analysis::VerifyMode::kEnforce;
  ReconfigurationEngine engine(app_, options);
  const auto server =
      app_.instantiate("EchoServer", "server", node_a_, Value{}).value();
  const auto client =
      app_.instantiate("EchoClient", "client", node_b_, Value{}).value();
  connector::ConnectorSpec spec;
  spec.name = "main";
  const auto main = app_.create_connector(spec).value();
  ASSERT_TRUE(app_.add_provider(main, server).ok());
  ASSERT_TRUE(app_.bind(client, "out", main).ok());

  ReconfigReport report;
  engine.replace_component(server, "CounterServer", "counter",
                           [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_EQ(report.status.code(), ErrorCode::kIncompatible)
      << report.error_message();
  EXPECT_EQ(app_.find_connector(main)->providers(),
            (std::vector<util::ComponentId>{server}));
  EXPECT_FALSE(app_.component_id("counter").valid());
  // Calls are still answered: straight in, and through the client's port.
  auto echoed = app_.invoke_sync(main, "echo",
                                 Value::object({{"text", "hi"}}), node_b_);
  ASSERT_TRUE(echoed.result.ok()) << echoed.result.error().message();
  EXPECT_EQ(echoed.result.value().as_string(), "hi");
  spec.name = "to_client";
  const auto to_client = app_.create_connector(spec).value();
  ASSERT_TRUE(app_.add_provider(to_client, client).ok());
  auto relayed = app_.invoke_sync(to_client, "go",
                                  Value::object({{"text", "via"}}), node_b_);
  ASSERT_TRUE(relayed.result.ok()) << relayed.result.error().message();
  EXPECT_EQ(relayed.result.value().as_string(), "via");
}

// ---------------------------------------------------------------------------
// Metric handles: the engine resolves each instrument at its first sample
// and keeps it, across registry resets and per engine.

class EngineMetricsTest : public AppFixture {
 protected:
  void SetUp() override {
    was_enabled_ = registry().enabled();
    registry().set_enabled(true);
    registry().reset_values();
  }
  void TearDown() override { registry().set_enabled(was_enabled_); }

  static obs::Registry& registry() { return obs::Registry::global(); }

  /// Series whose name starts with "reconfig." or "txn.".
  static std::size_t engine_series() {
    std::size_t n = 0;
    const auto count = [&n](const auto& family) {
      for (const auto& [key, instrument] : family) {
        const std::string_view name = key.first;
        if (name.starts_with("reconfig.") || name.starts_with("txn.")) ++n;
      }
    };
    count(registry().counters());
    count(registry().gauges());
    count(registry().histograms());
    return n;
  }

  static std::size_t drain_samples() {
    return registry()
        .histogram("reconfig.phase_us", {{"op", "migrate"}, {"phase", "drain"}})
        .count();
  }
  static std::size_t migrate_durations() {
    return registry()
        .histogram("reconfig.duration_us", {{"op", "migrate"}})
        .count();
  }

  /// Runs one migrate protocol to completion and returns its report.
  static ReconfigReport migrate(ReconfigurationEngine& engine,
                                sim::EventLoop& loop, util::ComponentId id,
                                util::NodeId to) {
    ReconfigReport report;
    engine.migrate_component(id, to,
                             [&](const ReconfigReport& r) { report = r; });
    loop.run();
    return report;
  }

  bool was_enabled_ = false;
};

TEST_F(EngineMetricsTest, ConstructingAnEngineCreatesNoSeries) {
  const std::size_t before = engine_series();
  ReconfigurationEngine engine(app_);
  auto txn = Txn::create(app_, engine, "idle");
  EXPECT_EQ(engine_series(), before);
}

TEST_F(EngineMetricsTest, KeptHandlesRecordAfterAReset) {
  ReconfigurationEngine engine(app_);
  const auto id = app_.instantiate("EchoServer", "mover", node_a_, Value{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(migrate(engine, loop_, id.value(), node_b_).ok());
  registry().reset_values();
  ASSERT_TRUE(migrate(engine, loop_, id.value(), node_a_).ok());
  EXPECT_EQ(drain_samples(), 1u);
  EXPECT_EQ(migrate_durations(), 1u);
}

TEST_F(EngineMetricsTest, TxnOutcomeRecordsAfterAReset) {
  ReconfigurationEngine engine(app_);
  ASSERT_TRUE(
      app_.instantiate("EchoServer", "mover", node_a_, Value{}).ok());
  const auto commit = [&](const char* node) {
    auto txn = Txn::create(app_, engine, "move");
    txn->migrate_component("mover", node);
    ReconfigReport report;
    txn->run([&](const ReconfigReport& r) { report = r; });
    loop_.run();
    return report.verdict;
  };
  ASSERT_EQ(commit("node_b"), TxnVerdict::kCommitted);
  registry().reset_values();
  ASSERT_EQ(commit("node_a"), TxnVerdict::kCommitted);
  EXPECT_EQ(registry().counter("txn.committed").value(), 1u);
  EXPECT_EQ(registry()
                .histogram("txn.duration_us", {{"verdict", "committed"}})
                .count(),
            1u);
}

TEST_F(EngineMetricsTest, TwoEnginesOverTwoAppsShareTheSeries) {
  // A second world with its own loop, network and application.
  sim::EventLoop loop;
  sim::Network network;
  component::ComponentRegistry types;
  runtime::Application app(loop, network, types);
  const util::NodeId a = network.add_node("a", 10000).id();
  const util::NodeId b = network.add_node("b", 10000).id();
  network.add_duplex_link(a, b, sim::LinkSpec{});
  types.register_type("EchoServer", [](const std::string& name) {
    return std::make_unique<aars::testing::EchoServer>(name);
  });

  ReconfigurationEngine first(app_);
  ReconfigurationEngine second(app);
  const auto here = app_.instantiate("EchoServer", "mover", node_a_, Value{});
  const auto there = app.instantiate("EchoServer", "mover", a, Value{});
  ASSERT_TRUE(here.ok());
  ASSERT_TRUE(there.ok());
  ASSERT_TRUE(migrate(first, loop_, here.value(), node_b_).ok());
  ASSERT_TRUE(migrate(second, loop, there.value(), b).ok());
  EXPECT_EQ(drain_samples(), 2u);
  EXPECT_EQ(migrate_durations(), 2u);
}

}  // namespace
}  // namespace aars::reconfig
