// End-to-end: ADL-declared `when … reconfigure` rules compiled through
// aars::Runtime, installed as a reconfig::RuleSet, and fired by the RAML
// MAPE loop — metric rules off the periodic tick, event rules off the fault
// watcher. No string parsing happens at fire time; these tests drive the
// whole path from source text to a mutated live architecture.
#include "reconfig/rules.h"

#include <gtest/gtest.h>

#include <string>

#include "adl/compiler.h"
#include "api/runtime.h"
#include "obs/metrics.h"
#include "testing/test_components.h"
#include "util/time.h"

namespace aars {
namespace {

using aars::testing::EchoClient;
using aars::testing::EchoServer;

// Echo world matching the registered test implementations.
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
instance client: EchoClient on edge;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;
)";

// `>= 0` makes the scale-out condition true from the first tick, so firing
// is deterministic.
constexpr const char* kScaleOutRule =
    R"(when queue_depth(main) >= 0 reconfigure scale_out {
  cooldown 1s;
  add server2: EchoServer on edge;
  reroute server to server2;
}
)";

std::string scale_out_world() {
  return std::string(kEchoWorld) + kScaleOutRule;
}

util::Result<std::unique_ptr<Runtime>> build_world(const std::string& source) {
  return Runtime::builder()
      .component_class<EchoServer>("EchoServer")
      .component_class<EchoClient>("EchoClient")
      .adl(source)
      .build();
}

TEST(AdlRulesTest, MetricRuleFiresOffTheRamlTick) {
  auto built = build_world(scale_out_world());
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  // Declaring a rule auto-creates the management layer.
  ASSERT_TRUE(rt->has_raml());
  ASSERT_NE(rt->adl_rules(), nullptr);
  EXPECT_EQ(rt->adl_rules()->rule_count(), 1u);

  rt->raml().start();
  rt->loop().run_until(util::milliseconds(100));

  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_GE(stats.evaluations, 5u);
  // The 1s cooldown keeps the always-true condition to exactly one firing
  // within the 100ms window; later ticks are suppressed, not re-fired.
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.actions, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.suppressed, 1u);

  // The add landed…
  const util::ComponentId replica = rt->component("server2");
  ASSERT_TRUE(replica.valid());
  EXPECT_EQ(rt->app().placement(replica), rt->host("edge"));
  // …and the reroute moved the connector's provider to the replica.
  EXPECT_TRUE(rt->app().find_connector(rt->connector("main"))
                  ->has_provider(replica));
  EXPECT_FALSE(rt->app().find_connector(rt->connector("main"))
                   ->has_provider(rt->component("server")));
}

TEST(AdlRulesTest, EventRuleFiresWhenTheFaultLands) {
  // Crash the *client's* host: fault.host_down triggers a replacement of
  // the (unaffected) server on core. Event rules never poll — the fault
  // watcher publishes into the FLO/C engine, which dispatches by index.
  const std::string source = std::string(kEchoWorld) +
                             R"(when event fault.host_down reconfigure fail_over {
  replace server with EchoServer as server_backup;
}
)";
  auto built = Runtime::builder()
                   .component_class<EchoServer>("EchoServer")
                   .component_class<EchoClient>("EchoClient")
                   .adl(source)
                   .with_fault_text("at 20ms crash host=edge for 10ms\n")
                   .build();
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  rt->raml().start();
  rt->loop().run_until(util::milliseconds(100));

  EXPECT_EQ(rt->adl_rules()->stats().fired, 1u);
  EXPECT_EQ(rt->adl_rules()->stats().failed, 0u);
  EXPECT_TRUE(rt->component("server_backup").valid());
  EXPECT_FALSE(rt->component("server").valid());
}

TEST(AdlRulesTest, SteadyStateEvaluationDoesNotFireBelowThreshold) {
  const std::string quiet = [] {
    std::string s = scale_out_world();
    const std::string needle = "queue_depth(main) >= 0";
    s.replace(s.find(needle), needle.size(), "queue_depth(main) > 1000");
    return s;
  }();
  auto built = build_world(quiet);
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  rt->raml().start();
  rt->loop().run_until(util::milliseconds(100));

  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_GE(stats.evaluations, 5u);
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_EQ(stats.actions, 0u);
  EXPECT_FALSE(rt->component("server2").valid());
}

TEST(AdlRulesTest, SustainWindowDelaysFiring) {
  const std::string sustained = [] {
    std::string s = scale_out_world();
    const std::string needle = "queue_depth(main) >= 0 reconfigure";
    s.replace(s.find(needle), needle.size(),
              "queue_depth(main) >= 0 for 4 ticks reconfigure");
    return s;
  }();
  auto built = build_world(sustained);
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  rt->raml().start();
  // Three ticks at the default 10ms period: not enough for `for 4 ticks`.
  rt->loop().run_until(util::milliseconds(35));
  EXPECT_EQ(rt->adl_rules()->stats().fired, 0u);
  // The fourth tick crosses the sustain window.
  rt->loop().run_until(util::milliseconds(100));
  EXPECT_EQ(rt->adl_rules()->stats().fired, 1u);
}

TEST(AdlRulesTest, InstallRejectsRulesAgainstAMissingDeployment) {
  // Compile a program whose rule samples a connector, then install it
  // against an application where that connector was never deployed: the
  // program and the deployment diverged, which install() must catch.
  adl::CompilationResult result = adl::compile(scale_out_world());
  ASSERT_TRUE(result.ok());

  sim::EventLoop loop;
  sim::Network network;
  component::ComponentRegistry registry;
  runtime::Application app(loop, network, registry);
  reconfig::ReconfigurationEngine engine(app);
  auto installed = reconfig::RuleSet::install(result.program, app, engine);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.error().code(), util::ErrorCode::kNotFound);
}

// A program whose only rule strands the live binding: removing `server`
// leaves client.out's connector with no provider, so the explorer finds an
// unsafe reachable configuration.
std::string unsafe_world() {
  return std::string(kEchoWorld) +
         R"(when queue_depth(main) >= 0 reconfigure drop_server {
  remove server;
}
)";
}

TEST(AdlRulesTest, EnforceGateRejectsExplorablyUnsafeProgram) {
  auto built = build_world(kEchoWorld);
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  adl::CompilationResult result = adl::compile(unsafe_world());
  ASSERT_TRUE(result.ok()) << adl::render_text(result.diagnostics, "<input>");

  reconfig::ExploreGate gate;
  gate.mode = analysis::VerifyMode::kEnforce;
  auto installed = reconfig::RuleSet::install(
      result.program, rt->app(), rt->engine(), nullptr, {}, gate);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.error().code(), util::ErrorCode::kVerificationFailed);
}

TEST(AdlRulesTest, WarnGateInstallsAndCountsFindings) {
  auto built = build_world(kEchoWorld);
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  adl::CompilationResult result = adl::compile(unsafe_world());
  ASSERT_TRUE(result.ok()) << adl::render_text(result.diagnostics, "<input>");

  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const std::uint64_t before =
      registry.counter("rules.explore_findings").value();

  reconfig::ExploreGate gate;
  gate.mode = analysis::VerifyMode::kWarn;
  auto installed = reconfig::RuleSet::install(
      result.program, rt->app(), rt->engine(), nullptr, {}, gate);
  EXPECT_TRUE(installed.ok()) << installed.error().message();
  EXPECT_GT(registry.counter("rules.explore_findings").value(), before);
  registry.set_enabled(was_enabled);
}

TEST(AdlRulesTest, EnforceGateAcceptsSafeProgram) {
  auto built = build_world(kEchoWorld);
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  adl::CompilationResult result = adl::compile(scale_out_world());
  ASSERT_TRUE(result.ok()) << adl::render_text(result.diagnostics, "<input>");

  reconfig::ExploreGate gate;
  gate.mode = analysis::VerifyMode::kEnforce;
  auto installed = reconfig::RuleSet::install(
      result.program, rt->app(), rt->engine(), nullptr, {}, gate);
  EXPECT_TRUE(installed.ok()) << installed.error().message();
}

TEST(AdlRulesTest, TeardownMidProtocolDoesNotTouchFreedRules) {
  // Regression: fire() used to capture a raw BoundRule* in the async Done
  // callback, so destroying the RuleSet while a firing's protocol was
  // still on the event loop wrote through a stale pointer.  The completion
  // path now holds a weak_ptr plus a stable rule index: the firing's txn
  // finishes on its own and the bookkeeping is silently skipped.
  auto built = build_world(kEchoWorld);  // world only, rules installed below
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  adl::CompilationResult result = adl::compile(scale_out_world());
  ASSERT_TRUE(result.ok());
  auto installed = reconfig::RuleSet::install(result.program, rt->app(),
                                              rt->engine());
  ASSERT_TRUE(installed.ok()) << installed.error().message();
  auto rules = std::move(installed).value();

  // Fire: the add lands synchronously, the reroute protocol stays in
  // flight on the loop.
  rules->evaluate(0);
  EXPECT_EQ(rules->stats().fired, 1u);
  rules.reset();  // tear the RuleSet down mid-protocol

  // Driving the loop to completion must not crash (ASan-clean) and the
  // orphaned firing still commits.
  rt->loop().run_until(util::seconds(1));
  const util::ComponentId replica = rt->component("server2");
  ASSERT_TRUE(replica.valid());
  EXPECT_TRUE(rt->app().find_connector(rt->connector("main"))
                  ->has_provider(replica));
}

}  // namespace
}  // namespace aars
