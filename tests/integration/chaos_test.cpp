// Chaos sweep: randomized crash storms across several seeds must always
// converge back to a healthy configuration — every component on an up host,
// the service answering, no retry stuck in flight.  The repair is the ADL
// rule `redeploy stranded` on `fault.host_down`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/runtime.h"
#include "testing/test_components.h"
#include "util/rng.h"
#include "util/time.h"

namespace aars {
namespace {

using aars::testing::EchoServer;
using util::Value;

constexpr util::SimTime kStormWindow = util::seconds(3);
constexpr util::SimTime kHorizon = util::seconds(5);

/// Random crash storm: a handful of host crashes on the replica hosts,
/// derived deterministically from the seed.
fault::FaultScenario random_storm(std::uint64_t seed) {
  util::Rng rng(seed);
  fault::FaultScenario storm("chaos_" + std::to_string(seed));
  const int crashes = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < crashes; ++i) {
    const std::string host = "s" + std::to_string(rng.uniform_int(0, 2));
    const util::SimTime at = rng.uniform_int(
        util::milliseconds(100), kStormWindow - util::seconds(1));
    const util::Duration down =
        rng.uniform_int(util::milliseconds(200), util::seconds(1));
    storm.crash(host, at, down);
  }
  return storm;
}

TEST(ChaosTest, RandomCrashStormsConvergeToAHealthyConfiguration) {
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44, 55, 66};
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    sim::LinkSpec link;
    link.latency = util::milliseconds(1);
    connector::ConnectorSpec spec;
    spec.name = "svc";
    spec.routing = connector::RoutingPolicy::kRoundRobin;
    fault::RetryPolicy policy;
    policy.max_retries = 3;
    policy.backoff_base = 500;
    policy.backoff_cap = util::milliseconds(5);
    policy.failover = true;

    auto built = Runtime::builder()
                     .seed(seed)
                     .host("client", 50000)
                     .host("s0", 10000)
                     .host("s1", 10000)
                     .host("s2", 10000)
                     .link_all(link)
                     .component_class<EchoServer>("EchoServer")
                     .deploy("EchoServer", "r0", "s0")
                     .deploy("EchoServer", "r1", "s1")
                     .deploy("EchoServer", "r2", "s2")
                     .connect(spec, {"r0", "r1", "r2"})
                     .with_retry("svc", policy)
                     .with_raml(util::milliseconds(10))
                     .adl("when event fault.host_down reconfigure repair {\n"
                          "  redeploy stranded;\n"
                          "}\n")
                     .with_faults(random_storm(seed))
                     .build();
    ASSERT_TRUE(built.ok()) << built.error().message();
    auto rt = std::move(built).value();
    auto& app = rt->app();
    auto& loop = rt->loop();

    rt->raml().start();
    loop.schedule_at(kHorizon, [&rt] { rt->raml().stop(); });
    rt->run();

    // Converged: every instance sits on an up host.
    for (util::ComponentId id : app.component_ids()) {
      EXPECT_TRUE(rt->faults().host_up(app.placement(id)))
          << "component stranded on a down host";
    }
    EXPECT_TRUE(rt->faults().down_hosts().empty());
    EXPECT_EQ(app.pending_retries(), 0u);
    EXPECT_GE(rt->adl_rules()->stats().fired, 1u);

    // The service answers again.
    auto out = app.invoke_sync(rt->connector("svc"), "ping", Value{},
                               rt->host("client"));
    EXPECT_TRUE(out.result.ok())
        << (out.result.ok() ? "" : out.result.error().message());
  }
}

}  // namespace
}  // namespace aars
