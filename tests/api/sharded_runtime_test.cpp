#include "api/sharded_runtime.h"

#include <gtest/gtest.h>

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "testing/test_components.h"

namespace aars {
namespace {

using testing::CounterServer;
using testing::EchoClient;
using testing::EchoServer;
using util::ErrorCode;
using util::Value;

sim::LinkSpec fabric_1ms() {
  sim::LinkSpec link;
  link.latency = util::milliseconds(1);
  return link;
}

connector::ConnectorSpec named(const std::string& name) {
  connector::ConnectorSpec spec;
  spec.name = name;
  return spec;
}

// A two-shard world: echo service on shard 1, counter on shard 0.
std::unique_ptr<ShardedRuntime> build_two_shard_world() {
  return ShardedRuntime::builder()
      .with_shards(2)
      .seed(11)
      .cross_shard_link(fabric_1ms())
      .host("host-a", 2000, 0)
      .host("host-b", 2000, 1)
      .component_class<EchoServer>("EchoServer")
      .component_class<CounterServer>("CounterServer")
      .deploy("CounterServer", "ctr", "host-a")
      .deploy("EchoServer", "echo-srv", "host-b")
      .connect(named("counter"), {"ctr"})
      .connect(named("echo"), {"echo-srv"})
      .build()
      .value();
}

TEST(ShardedRuntimeBuilderTest, RejectsZeroShards) {
  auto result = ShardedRuntime::builder().with_shards(0).build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ShardedRuntimeBuilderTest, RejectsDeployOntoUnknownHost) {
  auto result = ShardedRuntime::builder()
                    .with_shards(2)
                    .host("a", 1000, 0)
                    .component_class<EchoServer>("EchoServer")
                    .deploy("EchoServer", "srv", "nowhere")
                    .build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST(ShardedRuntimeBuilderTest, RejectsProvidersSpanningShards) {
  auto result = ShardedRuntime::builder()
                    .with_shards(2)
                    .host("a", 1000, 0)
                    .host("b", 1000, 1)
                    .component_class<EchoServer>("EchoServer")
                    .deploy("EchoServer", "srv-a", "a")
                    .deploy("EchoServer", "srv-b", "b")
                    .connect(named("svc"), {"srv-a", "srv-b"})
                    .build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ShardedRuntimeBuilderTest, RejectsExplicitLinkAcrossShards) {
  auto result = ShardedRuntime::builder()
                    .with_shards(2)
                    .host("a", 1000, 0)
                    .host("b", 1000, 1)
                    .link("a", "b", fabric_1ms())
                    .build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ShardedRuntimeBuilderTest, RoutesNamesToTheirHomeShards) {
  auto srt = build_two_shard_world();
  EXPECT_EQ(srt->shard_count(), 2u);
  EXPECT_EQ(srt->router().host_shard("host-a"), std::optional<std::size_t>(0));
  EXPECT_EQ(srt->router().host_shard("host-b"), std::optional<std::size_t>(1));
  EXPECT_EQ(srt->router().component_shard("ctr"),
            std::optional<std::size_t>(0));
  EXPECT_EQ(srt->router().connector_shard("echo"),
            std::optional<std::size_t>(1));
  // The connector object itself knows its home shard.
  Runtime& shard1 = srt->shard(1);
  EXPECT_EQ(shard1.app().find_connector(shard1.connector("echo"))->home_shard(),
            1u);
}

TEST(ShardedRuntimeTest, LocalCallCompletesOnOwnShard) {
  auto srt = build_two_shard_world();
  std::optional<std::int64_t> reply;
  srt->call(0, "counter", "add", Value::object({{"amount", 5}}),
            [&](util::Result<Value> result, util::Duration) {
              ASSERT_TRUE(result.ok());
              reply = result.value().as_int();
            });
  srt->run();
  EXPECT_EQ(reply, std::optional<std::int64_t>(5));
}

TEST(ShardedRuntimeTest, CrossShardCallRoundTripsThroughTheFabric) {
  auto srt = build_two_shard_world();
  std::optional<std::string> text;
  util::Duration latency = 0;
  srt->call(0, "echo", "echo", Value::object({{"text", "hello"}}),
            [&](util::Result<Value> result, util::Duration lat) {
              ASSERT_TRUE(result.ok());
              text = result.value().as_string();
              latency = lat;
            });
  srt->run();
  ASSERT_EQ(text, std::optional<std::string>("hello"));
  // One fabric hop out, one back: end-to-end latency is bounded below by
  // twice the cross-shard link latency.
  EXPECT_GE(latency, 2 * srt->cross_shard_latency());
  EXPECT_GE(srt->shards().cross_shard_delivered(), 2u);
}

TEST(ShardedRuntimeTest, CallToUnknownConnectorThrows) {
  auto srt = build_two_shard_world();
  EXPECT_THROW(srt->call(0, "no-such", "echo", Value{},
                         [](util::Result<Value>, util::Duration) {}),
               util::InvariantViolation);
}

TEST(ShardedRuntimeTest, CrossShardEventIsDelivered) {
  auto srt = build_two_shard_world();
  ASSERT_TRUE(srt->post_event(0, "echo", "ping", Value{}).ok());
  srt->run();
  Runtime& shard1 = srt->shard(1);
  EXPECT_GE(shard1.app().find_connector(shard1.connector("echo"))->relayed(),
            1u);
  EXPECT_GE(srt->shards().cross_shard_delivered(), 1u);
}

TEST(ShardedRuntimeTest, PostEventToUnknownConnectorReturnsNotFound) {
  auto srt = build_two_shard_world();
  auto status = srt->post_event(0, "no-such", "ping", Value{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kNotFound);
}

// Cross-shard migration: state accumulated on shard 0 must survive the move
// to shard 1, the router must flip, and traffic must flow to the new home.
TEST(ShardedRuntimeTest, MigrateAcrossShardsCarriesStateAndReroutes) {
  auto srt = build_two_shard_world();

  std::optional<std::int64_t> before;
  srt->call(0, "counter", "add", Value::object({{"amount", 7}}),
            [&](util::Result<Value> result, util::Duration) {
              ASSERT_TRUE(result.ok());
              before = result.value().as_int();
            });
  srt->run();
  ASSERT_EQ(before, std::optional<std::int64_t>(7));

  std::optional<reconfig::ReconfigReport> report;
  srt->migrate_across("ctr", "host-b",
                      [&](const reconfig::ReconfigReport& r) { report = r; });
  srt->run();  // barrier-driven protocol needs windows to progress
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->status.ok()) << report->error_message();
  EXPECT_EQ(srt->router().component_shard("ctr"),
            std::optional<std::size_t>(1));
  EXPECT_EQ(srt->router().connector_shard("counter"),
            std::optional<std::size_t>(1));
  // The instance is gone from shard 0 and alive (with its state) on 1.
  EXPECT_EQ(srt->shard(0).app().find_component(
                srt->shard(0).app().component_id("ctr")),
            nullptr);

  std::optional<std::int64_t> after;
  srt->call(1, "counter", "total", Value{},
            [&](util::Result<Value> result, util::Duration) {
              ASSERT_TRUE(result.ok());
              after = result.value().as_int();
            });
  srt->run();
  EXPECT_EQ(after, std::optional<std::int64_t>(7));
}

// A counter that records the traffic class of every message it handles, so
// a test sees what metadata a re-delivered event still carried.  Shard
// runners may be threads, hence the lock.
std::mutex probe_mutex;
std::vector<component::Priority> probe_seen;

class PriorityProbe : public CounterServer {
 public:
  explicit PriorityProbe(const std::string& instance_name)
      : CounterServer(instance_name, "PriorityProbe") {
    observe([](const component::Message& message,
               const util::Result<Value>&) {
      std::lock_guard<std::mutex> lock(probe_mutex);
      probe_seen.push_back(component::message_priority(message));
    });
  }
};

// An event held on a blocked source channel is re-sent on the target shard
// with its metadata: here, the kHigh traffic class it was sent with.
TEST(ShardedRuntimeTest, CrossShardReplayKeepsAHeldEventsPriority) {
  auto srt = ShardedRuntime::builder()
                 .with_shards(2)
                 .seed(11)
                 .cross_shard_link(fabric_1ms())
                 .host("host-a", 2000, 0)
                 .host("host-b", 2000, 1)
                 .component_class<PriorityProbe>("PriorityProbe")
                 .deploy("PriorityProbe", "probe", "host-a")
                 .connect(named("counter"), {"probe"})
                 .build()
                 .value();
  Runtime& source = srt->shard(0);
  const auto conn = source.connector("counter");
  const auto origin = source.host("host-a");
  // Channels are created on first use: a first event opens the one the
  // migration will block.
  ASSERT_TRUE(source.app()
                  .send_event(conn, "add", Value::object({{"amount", 1}}),
                              origin)
                  .ok());
  srt->run();
  {
    std::lock_guard<std::mutex> lock(probe_mutex);
    probe_seen.clear();
  }

  // The migration blocks the source channel at its first barrier, before
  // the next window; this event lands in that window and is held.
  const util::SimTime at = srt->now() + util::microseconds(500);
  source.loop().schedule_at(at, [&source, conn, origin] {
    EXPECT_TRUE(source.app()
                    .send_event(conn, "add", Value::object({{"amount", 4}}),
                                origin,
                                component::Control{
                                    .priority = component::Priority::kHigh})
                    .ok());
  });
  std::optional<reconfig::ReconfigReport> report;
  srt->migrate_across("probe", "host-b",
                      [&](const reconfig::ReconfigReport& r) { report = r; });
  srt->run();
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->status.ok()) << report->error_message();
  EXPECT_EQ(report->held_messages, 1u);
  EXPECT_EQ(report->replayed_messages, 1u);
  {
    std::lock_guard<std::mutex> lock(probe_mutex);
    EXPECT_EQ(probe_seen,
              std::vector<component::Priority>{component::Priority::kHigh});
  }

  // The event was handled by the instance on shard 1.
  std::optional<std::int64_t> total;
  srt->call(1, "counter", "total", Value{},
            [&](util::Result<Value> result, util::Duration) {
              ASSERT_TRUE(result.ok());
              total = result.value().as_int();
            });
  srt->run();
  EXPECT_EQ(total, std::optional<std::int64_t>(5));
}

TEST(ShardedRuntimeTest, SameShardMigrateUsesTheShardEngine) {
  auto srt = ShardedRuntime::builder()
                 .with_shards(2)
                 .host("a1", 2000, 0)
                 .host("a2", 2000, 0)
                 .host("b", 2000, 1)
                 .link("a1", "a2", fabric_1ms())
                 .component_class<CounterServer>("CounterServer")
                 .deploy("CounterServer", "ctr", "a1")
                 .connect(named("counter"), {"ctr"})
                 .build()
                 .value();
  std::optional<reconfig::ReconfigReport> report;
  srt->migrate_across("ctr", "a2",
                      [&](const reconfig::ReconfigReport& r) { report = r; });
  srt->run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->status.ok()) << report->error_message();
  EXPECT_EQ(srt->shard(0).app().placement(
                srt->shard(0).app().component_id("ctr")),
            srt->shard(0).host("a2"));
}

// --- ADL worlds ----------------------------------------------------------------

// Echo world matching the registered test implementations: `main` has two
// providers on `core`.
constexpr const char* kEchoWorld = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Trigger {
  service go(text: string) -> string;
}
component EchoServer provides Echo;
component EchoClient provides Trigger {
  requires out: Echo;
}
node edge { capacity 10000; }
node core { capacity 10000; }
link edge <-> core { latency 1ms; bandwidth 100mbps; }
instance server: EchoServer on core;
instance spare: EchoServer on core;
instance client: EchoClient on edge;
connector main { routing round_robin; delivery sync; }
bind client.out -> server, spare via main;
)";

ShardedRuntime::Builder sharded_echo(std::size_t shards) {
  return ShardedRuntime::builder()
      .with_shards(shards)
      .cross_shard_link(fabric_1ms())
      .component_class<EchoServer>("EchoServer")
      .component_class<EchoClient>("EchoClient");
}

// Each rule alone leaves `main` a provider, so the compile-time screen
// passes; the sequence shed_spare -> consolidate strands client.out (the
// d18 defect).  The explore gate must reject it on every builder alike.
TEST(ShardedRuntimeAdlTest, ExploreGateRejectsAnUnsafeProgramOnEveryBuilder) {
  const std::string source = std::string(kEchoWorld) + R"(
when queue_depth(main) >= 0 reconfigure shed_spare {
  remove spare;
}
when queue_depth(main) >= 0 reconfigure consolidate {
  remove server;
}
)";
  auto plain = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(source)
                   .explore_rules(analysis::VerifyMode::kEnforce)
                   .build();
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kVerificationFailed);
  EXPECT_NE(plain.error().message().find("[unsafe-config]"),
            std::string::npos)
      << plain.error().message();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    auto sharded = sharded_echo(shards)
                       .adl(source)
                       .explore_rules(analysis::VerifyMode::kEnforce)
                       .build();
    ASSERT_FALSE(sharded.ok()) << shards << " shard(s)";
    EXPECT_EQ(sharded.error().code(), ErrorCode::kVerificationFailed);
    EXPECT_EQ(sharded.error().message(), plain.error().message());
  }
}

// Removing the spare never strands a binding, so only the declared path
// property can reject the program: the explore gate must check it on every
// builder alike.
TEST(ShardedRuntimeAdlTest, ExploreGateChecksDeclaredProperties) {
  const std::string source = std::string(kEchoWorld) + R"(
when queue_depth(main) >= 0 reconfigure shed_spare {
  remove spare;
}
property two_servers {
  always replicas(EchoServer) >= 2;
}
)";
  auto plain = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(source)
                   .explore_rules(analysis::VerifyMode::kEnforce)
                   .build();
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.error().code(), ErrorCode::kVerificationFailed);
  EXPECT_NE(plain.error().message().find("two_servers"), std::string::npos)
      << plain.error().message();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    auto sharded = sharded_echo(shards)
                       .adl(source)
                       .explore_rules(analysis::VerifyMode::kEnforce)
                       .build();
    ASSERT_FALSE(sharded.ok()) << shards << " shard(s)";
    EXPECT_EQ(sharded.error().code(), ErrorCode::kVerificationFailed);
    EXPECT_EQ(sharded.error().message(), plain.error().message());
  }
}

TEST(ShardedRuntimeAdlTest, BuilderDeploysOntoAnAdlHost) {
  auto plain = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(kEchoWorld)
                   .deploy("EchoServer", "extra", "core")
                   .build();
  ASSERT_TRUE(plain.ok()) << plain.error().message();

  auto sharded = sharded_echo(2)
                     .adl(kEchoWorld)
                     .deploy("EchoServer", "extra", "core")
                     .build();
  ASSERT_TRUE(sharded.ok()) << sharded.error().message();
  ShardedRuntime& srt = *sharded.value();
  EXPECT_EQ(srt.router().component_shard("extra"),
            std::optional<std::size_t>(0));
  Runtime& shard0 = srt.shard(0);
  EXPECT_EQ(shard0.app().placement(shard0.component("extra")),
            shard0.host("core"));
}

TEST(ShardedRuntimeAdlTest, AdlWorldIsHomedOnShardZero) {
  const std::string source = std::string(kEchoWorld) + R"(
when queue_depth(main) > 1000 reconfigure shed_spare {
  remove spare;
}
when queue_depth(main) > 2000 reconfigure grow {
  add server2: EchoServer on core;
}
)";
  auto srt = sharded_echo(2).host("far", 2000, 1).adl(source).build().value();

  const runtime::ShardRouter& router = srt->router();
  const std::optional<std::size_t> zero(0);
  for (const char* node : {"edge", "core"}) {
    EXPECT_EQ(router.host_shard(node), zero) << node;
  }
  EXPECT_EQ(router.host_shard("far"), std::optional<std::size_t>(1));
  for (const char* instance : {"server", "spare", "client"}) {
    EXPECT_EQ(router.component_shard(instance), zero) << instance;
  }
  EXPECT_EQ(router.connector_shard("main"), zero);

  Runtime& shard0 = srt->shard(0);
  ASSERT_NE(shard0.adl_rules(), nullptr);
  EXPECT_EQ(shard0.adl_rules()->rule_count(), 2u);
  EXPECT_FALSE(srt->shard(1).has_raml());
  EXPECT_EQ(shard0.app().find_connector(shard0.connector("main"))->home_shard(),
            0u);

  std::optional<std::string> text;
  srt->call(1, "main", "echo", Value::object({{"text", "from afar"}}),
            [&](util::Result<Value> result, util::Duration) {
              ASSERT_TRUE(result.ok()) << result.error().message();
              text = result.value().as_string();
            });
  srt->run();
  EXPECT_EQ(text, std::optional<std::string>("from afar"));
  EXPECT_GE(srt->shards().cross_shard_delivered(), 2u);
}

}  // namespace
}  // namespace aars
