// Sharded-execution determinism contract:
//   1. with_shards(1) is byte-identical to unsharded execution — the exact
//      golden transcript the single-threaded determinism digest pins.
//   2. A multi-shard run is reproducible: same seed + shard count => same
//      transcript, independent of OS thread scheduling and of how many
//      runner threads the CPUs allow.
//   3. EventHandle misuse across shards (cancelling another shard's timer
//      from that shard's code) is rejected and counted, never racy, even
//      when both shards run on one thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sharded_runtime.h"
#include "testing/cpu_confinement.h"
#include "testing/test_components.h"
#include "util/rng.h"

namespace aars {
namespace {

using testing::EchoServer;
using util::Value;

#ifndef AARS_GOLDEN_DIR
#define AARS_GOLDEN_DIR "."
#endif

// The exact scenario of determinism_digest_test.cpp, built through the
// ShardedRuntime builder with one shard. Any divergence from the golden
// transcript means the sharded path perturbed single-threaded execution.
std::string run_single_shard_scenario() {
  sim::LinkSpec link;
  link.latency = util::milliseconds(2);
  link.bandwidth_bytes_per_sec = 1e6;

  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kRoundRobin;

  auto srt = ShardedRuntime::builder()
                 .with_shards(1)
                 .seed(1234)
                 .host("edge", 100000, 0)
                 .host("core-a", 800, 0)
                 .host("core-b", 800, 0)
                 .link("edge", "core-a", link)
                 .link("edge", "core-b", link)
                 .component_class<EchoServer>("EchoServer")
                 .deploy("EchoServer", "srv-a", "core-a")
                 .deploy("EchoServer", "srv-b", "core-b")
                 .connect(spec, {"srv-a", "srv-b"})
                 .build()
                 .value();
  Runtime& rt = srt->shard(0);
  auto& app = rt.app();
  auto& loop = rt.loop();
  const auto edge = rt.host("edge");
  const auto conn = rt.connector("svc");
  const auto srv_b = rt.component("srv-b");

  std::ostringstream transcript;
  app.add_call_listener([&](const runtime::CallRecord& record) {
    transcript << "call at=" << record.completed_at
               << " lat=" << record.latency << " ok=" << record.ok
               << " op=" << record.operation
               << " provider=" << record.provider.raw() << "\n";
  });

  util::Rng rng(99);
  constexpr int kCalls = 400;
  std::function<void(int)> arrivals;
  arrivals = [&](int remaining) {
    if (remaining == 0) return;
    const int n = kCalls - remaining;
    if (n % 8 == 7) {
      (void)app.send_event(conn, "ping", Value{}, edge,
                           component::Control{
                               .priority = component::Priority::kHigh});
    } else if (n % 2 == 0) {
      app.invoke_async(conn, "echo",
                       Value::object({{"text", "m" + std::to_string(n)}}),
                       edge, [](util::Result<Value>, util::Duration) {});
    } else {
      app.invoke_async(conn, "ping", Value{}, edge,
                       [](util::Result<Value>, util::Duration) {});
    }
    const auto gap = static_cast<util::Duration>(
        1 + rng.exponential(static_cast<double>(util::milliseconds(3))));
    loop.schedule_after(gap, [&arrivals, remaining] {
      arrivals(remaining - 1);
    });
  };
  loop.schedule_after(0, [&arrivals] { arrivals(kCalls); });

  loop.schedule_at(util::milliseconds(300), [&] {
    (void)app.block_channels_to(srv_b);
  });
  loop.schedule_at(util::milliseconds(450), [&] {
    (void)app.unblock_channels_to(srv_b);
    (void)app.replay_held(srv_b);
  });

  for (int i = 0; i < 50; ++i) {
    auto handle = loop.schedule_at(util::milliseconds(10 * i + 5), [] {});
    if (i % 3 != 0) handle.cancel();
  }

  srt->run();  // single-shard: no windows, no threads

  transcript << "executed=" << loop.executed() << " now=" << loop.now()
             << "\n";
  transcript << "calls=" << app.total_calls()
             << " failed=" << app.failed_calls()
             << " dropped=" << app.messages_dropped()
             << " duplicated=" << app.messages_duplicated() << "\n";
  const connector::Connector* c = app.find_connector(conn);
  transcript << "relayed=" << c->relayed() << "\n";
  return transcript.str();
}

TEST(ShardedDeterminismTest, SingleShardMatchesGoldenDigestByteForByte) {
  std::ifstream in(std::string(AARS_GOLDEN_DIR) + "/determinism_digest.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden determinism digest";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(run_single_shard_scenario(), golden.str())
      << "a 1-shard ShardedRuntime diverged from unsharded execution";
}

// A 4-shard world with cross-shard RPC fan-out from shard 0. Completion
// callbacks all land on shard 0, so the transcript has a single writer;
// two runs with the same seed must agree exactly.
std::string run_four_shard_scenario(std::uint64_t seed) {
  sim::LinkSpec fabric;
  fabric.latency = util::milliseconds(1);

  auto builder = ShardedRuntime::builder()
                     .with_shards(4)
                     .seed(seed)
                     .cross_shard_link(fabric)
                     .component_class<EchoServer>("EchoServer");
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string tag = std::to_string(s);
    builder.host("host-" + tag, 2000, s)
        .deploy("EchoServer", "srv-" + tag, "host-" + tag);
    connector::ConnectorSpec spec;
    spec.name = "svc-" + tag;
    builder.connect(spec, {"srv-" + tag});
  }
  auto srt = builder.build().value();

  std::vector<std::string> done;  // written only by shard 0
  ShardedRuntime& world = *srt;
  sim::EventLoop& origin = srt->shard(0).loop();

  constexpr int kCalls = 64;
  std::function<void(int)> drive;
  drive = [&](int n) {
    if (n == kCalls) return;
    const std::string target = "svc-" + std::to_string(n % 4);
    world.call(0, target, "echo",
               Value::object({{"text", "m" + std::to_string(n)}}),
               [&, n](util::Result<Value> result, util::Duration latency) {
                 std::ostringstream line;
                 line << "done n=" << n << " ok=" << result.ok()
                      << " t=" << origin.now() << " lat=" << latency;
                 done.push_back(line.str());
               });
    origin.schedule_after(util::microseconds(250),
                          [&drive, n] { drive(n + 1); });
  };
  origin.schedule_at(0, [&drive] { drive(0); });
  srt->run();

  std::ostringstream out;
  for (const std::string& line : done) out << line << "\n";
  out << "completed=" << done.size()
      << " executed=" << srt->shards().executed()
      << " delivered=" << srt->shards().cross_shard_delivered()
      << " windows=" << srt->shards().windows() << "\n";
  return out.str();
}

TEST(ShardedDeterminismTest, FourShardSeededRunsAreRepeatable) {
  const std::string first = run_four_shard_scenario(7);
  const std::string second = run_four_shard_scenario(7);
  EXPECT_NE(first.find("completed=64"), std::string::npos)
      << "fan-out did not finish:\n"
      << first;
  EXPECT_NE(first.find("done n=0 ok=1"), std::string::npos);
  EXPECT_EQ(first, second);
  const testing::ConfineToCpus one_cpu(1);
  ASSERT_TRUE(one_cpu.confined());
  EXPECT_EQ(run_four_shard_scenario(7), first);
}

void expect_cross_shard_cancel_rejected(std::size_t runners) {
  auto srt = ShardedRuntime::builder()
                 .with_shards(2)
                 .host("a", 1000, 0)
                 .host("b", 1000, 1)
                 .build()
                 .value();
  ASSERT_EQ(srt->shards().runners(), runners);
  int fired = 0;
  // A timer owned by shard 0, attacked from shard 1 mid-window: the cancel
  // is rejected and counted; the timer still fires on its own shard.
  sim::EventHandle timer =
      srt->shard(0).loop().schedule_at(util::milliseconds(20),
                                       [&] { ++fired; });
  srt->shards().post(1, 1, util::milliseconds(1), [&] {
    EXPECT_FALSE(timer.active());
    EXPECT_FALSE(timer.cancel());
  });
  srt->run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(srt->shards().foreign_cancels_rejected(), 1u);
}

TEST(ShardedDeterminismTest, CrossShardHandleCancelRejectedSafely) {
  expect_cross_shard_cancel_rejected(
      std::min<std::size_t>(2, sim::usable_cpus()));
  // One CPU: both shards share the calling thread.
  const testing::ConfineToCpus one_cpu(1);
  ASSERT_TRUE(one_cpu.confined());
  expect_cross_shard_cancel_rejected(1);
}

}  // namespace
}  // namespace aars
