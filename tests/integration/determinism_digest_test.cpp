// Determinism digest: a fixed-seed, rush-hour-shaped scenario whose full
// observable behaviour (every call record, event counts, channel integrity
// counters and the obs trace) is reduced to a text transcript and compared
// against a committed golden file.
//
// Purpose: the hot-path overhaul (slab event pool, COW values, interned
// names, pooled messages) must not change simulation behaviour at all —
// same event order, same latencies, same QoS numbers.  This test pins the
// pre-overhaul transcript; any future "optimisation" that reorders
// same-instant events or perturbs message contents fails it byte-for-byte.
//
// Regenerating the golden (only when behaviour changes INTENTIONALLY):
//   AARS_UPDATE_GOLDEN=1 ./tests/integration_test --gtest_filter=Determinism*
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/runtime.h"
#include "obs/metrics.h"
#include "testing/test_components.h"
#include "util/rng.h"

namespace aars {
namespace {

using testing::EchoServer;
using util::Value;

#ifndef AARS_GOLDEN_DIR
#define AARS_GOLDEN_DIR "."
#endif

std::string golden_path() {
  return std::string(AARS_GOLDEN_DIR) + "/determinism_digest.txt";
}

// Rush-hour-shaped arrival process over a round-robin connector with two
// providers on separate hosts, one provider blocked/unblocked mid-run (the
// hold/replay path), retried traffic and queued one-way events.  Everything
// is driven by the one event loop at a fixed seed.
std::string run_scenario() {
  sim::LinkSpec link;
  link.latency = util::milliseconds(2);
  link.bandwidth_bytes_per_sec = 1e6;

  connector::ConnectorSpec spec;
  spec.name = "svc";
  spec.routing = connector::RoutingPolicy::kRoundRobin;

  auto rt = Runtime::builder()
                .seed(1234)
                .host("edge", 100000)
                .host("core-a", 800)
                .host("core-b", 800)
                .link("edge", "core-a", link)
                .link("edge", "core-b", link)
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "srv-a", "core-a")
                .deploy("EchoServer", "srv-b", "core-b")
                .connect(spec, {"srv-a", "srv-b"})
                .build()
                .value();
  auto& app = rt->app();
  auto& loop = rt->loop();
  const auto edge = rt->host("edge");
  const auto conn = rt->connector("svc");
  const auto srv_b = rt->component("srv-b");

  std::ostringstream transcript;
  app.add_call_listener([&](const runtime::CallRecord& record) {
    transcript << "call at=" << record.completed_at
               << " lat=" << record.latency << " ok=" << record.ok
               << " op=" << record.operation
               << " provider=" << record.provider.raw() << "\n";
  });

  // Arrival process: 400 requests, exponential gaps around a rush-hour
  // peak, alternating echo/ping payloads; every 8th message is a one-way
  // event.
  util::Rng rng(99);
  constexpr int kCalls = 400;
  // Plain local recursion (not a shared_ptr capturing itself, which would
  // cycle and leak): `arrivals` outlives rt->run() below.
  std::function<void(int)> arrivals;
  arrivals = [&](int remaining) {
    if (remaining == 0) return;
    const int n = kCalls - remaining;
    if (n % 8 == 7) {
      (void)app.send_event(conn, "ping", Value{}, edge,
                           Value::object({{"__priority", 2}}));
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

  // Mid-run quiescence cycle on srv-b: block, hold traffic, replay.
  loop.schedule_at(util::milliseconds(300), [&] {
    (void)app.block_channels_to(srv_b);
  });
  loop.schedule_at(util::milliseconds(450), [&] {
    (void)app.unblock_channels_to(srv_b);
    (void)app.replay_held(srv_b);
  });

  // A burst of cancelled timers interleaved with live ones: the cancel
  // accounting must not disturb execution order.
  for (int i = 0; i < 50; ++i) {
    auto handle = loop.schedule_at(util::milliseconds(10 * i + 5), [] {});
    if (i % 3 != 0) handle.cancel();
  }

  rt->run();

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

TEST(DeterminismDigestTest, TranscriptMatchesGolden) {
  const std::string transcript = run_scenario();
  if (std::getenv("AARS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << transcript;
    GTEST_SKIP() << "golden updated: " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with AARS_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(transcript, golden.str())
      << "simulation transcript diverged from the committed golden — the "
         "event order or message contents changed";
}

// Two back-to-back runs in the same process must agree exactly (guards
// against hidden global state: intern tables, pools, registries).
TEST(DeterminismDigestTest, RepeatedRunsAgree) {
  EXPECT_EQ(run_scenario(), run_scenario());
}

}  // namespace
}  // namespace aars
