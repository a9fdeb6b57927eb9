// End-to-end: ADL-declared `when … reconfigure` rules compiled through
// aars::Runtime, installed as a reconfig::RuleSet, and fired by the RAML
// MAPE loop — metric rules off the periodic tick, event rules off the fault
// watcher. No string parsing happens at fire time; these tests drive the
// whole path from source text to a mutated live architecture.
#include "reconfig/rules.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// kEchoWorld plus a cheap implementation of the same interface.
util::Result<std::unique_ptr<Runtime>> build_swap_world(
    const std::string& rules) {
  return Runtime::builder()
      .component_class<EchoServer>("EchoServer")
      .component_type("CheapEchoServer",
                      [](const std::string& name) {
                        return std::make_unique<EchoServer>(
                            name, "CheapEchoServer", 0.4);
                      })
      .component_class<EchoClient>("EchoClient")
      .adl(std::string(kEchoWorld) +
           "component CheapEchoServer provides Echo;\n" + rules)
      .build();
}

/// Fires event rule `index` and runs the loop until its txn settled.
void fire_and_settle(Runtime& rt, std::size_t index) {
  rt.adl_rules()->fire_event_rule(index, rt.loop().now());
  rt.loop().run();
}

std::string type_of(Runtime& rt, const std::string& instance) {
  const component::Component* comp =
      rt.app().find_component(rt.component(instance));
  return comp == nullptr ? "" : comp->type_name();
}

TEST(AdlRulesTest, UnnamedReplacePairAlternatesNamesAndCommitsEveryFiring) {
  // Without `as`, a replacement takes the declared name when no live
  // instance holds it, else `<declared>_new`: a fixed name would be the one
  // the live target holds on every second swap, and that swap would roll
  // back.
  auto built = build_swap_world(
      "when event fault.host_down reconfigure degrade {\n"
      "  replace server with CheapEchoServer;\n"
      "}\n"
      "when event fault.host_up reconfigure restore {\n"
      "  replace server with EchoServer;\n"
      "}\n");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();
  std::vector<std::string> names;
  rt->adl_rules()->set_firing_observer(
      [&](util::Symbol, const reconfig::ReconfigReport& report) {
        ASSERT_EQ(report.steps.size(), 1u);
        const component::Component* comp =
            rt->app().find_component(report.steps[0].swapped_to);
        names.push_back(comp == nullptr ? "?" : comp->instance_name());
      });

  for (int round = 0; round < 2; ++round) {
    fire_and_settle(*rt, 0);
    fire_and_settle(*rt, 1);
  }
  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_EQ(stats.fired, 4u);
  EXPECT_EQ(stats.committed, 4u);
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_EQ(names, (std::vector<std::string>{"server_new", "server",
                                             "server_new", "server"}));
  EXPECT_EQ(type_of(*rt, "server"), "EchoServer");
}

TEST(AdlRulesTest, FalseGuardDisablesAnEventRuleWithoutSuppressingIt) {
  auto built = build_swap_world(
      "when event fault.host_down if running(server, EchoServer) "
      "reconfigure degrade {\n"
      "  replace server with CheapEchoServer;\n"
      "}\n"
      "when event fault.host_up if running(server, CheapEchoServer) "
      "reconfigure restore {\n"
      "  replace server with EchoServer;\n"
      "}\n");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  fire_and_settle(*rt, 0);
  fire_and_settle(*rt, 0);  // the guard now reads CheapEchoServer
  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.suppressed, 0u);
  EXPECT_EQ(type_of(*rt, "server_new"), "CheapEchoServer");
}

TEST(AdlRulesTest, MetricRuleWithAFalseGuardNeverFires) {
  auto built = build_swap_world(
      "when queue_depth(main) >= 0 if not exists(server) "
      "reconfigure never {\n"
      "  add server2: EchoServer on edge;\n"
      "}\n");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  rt->raml().start();
  rt->loop().run_until(util::milliseconds(100));

  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_GE(stats.evaluations, 5u);
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_EQ(stats.suppressed, 0u);
  EXPECT_FALSE(rt->component("server2").valid());
}

TEST(AdlRulesTest, GuardFollowsTheReplacedInstance) {
  auto built = build_swap_world(
      "when event fault.host_down reconfigure degrade {\n"
      "  replace server with CheapEchoServer;\n"
      "}\n"
      "when event fault.host_up if running(server, CheapEchoServer) "
      "reconfigure restore {\n"
      "  replace server with EchoServer;\n"
      "}\n");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  fire_and_settle(*rt, 1);  // server still runs EchoServer
  EXPECT_EQ(rt->adl_rules()->stats().fired, 0u);
  fire_and_settle(*rt, 0);  // server -> server_new (CheapEchoServer)
  fire_and_settle(*rt, 1);  // the guard reads server_new
  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.committed, 2u);
  EXPECT_EQ(type_of(*rt, "server"), "EchoServer");
  EXPECT_FALSE(rt->component("server_new").valid());
}

// Five hosts around edge: `island` has no link, so no call path can reach a
// server moved there and the enforcing verifier rejects it.
constexpr const char* kRepairWorld = R"(interface Echo {
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
node island { capacity 10000; }
node busy { capacity 10000; }
node spare { capacity 10000; }
link edge <-> core { latency 1ms; bandwidth 100mbps; }
link edge <-> busy { latency 1ms; bandwidth 100mbps; }
link edge <-> spare { latency 1ms; bandwidth 100mbps; }
instance server: EchoServer on core;
instance client: EchoClient on edge;
connector main { routing direct; delivery sync; }
bind client.out -> server via main;
when event fault.host_down reconfigure self_repair {
  redeploy stranded;
}
)";

/// Crashes `host` 1ms in, for 1s.
util::Result<std::unique_ptr<Runtime>> build_repair_world(
    const std::string& host) {
  return Runtime::builder()
      .component_class<EchoServer>("EchoServer")
      .component_class<EchoClient>("EchoClient")
      .with_verification(analysis::VerifyMode::kEnforce)
      .adl(kRepairWorld)
      .with_fault_text("at 1ms crash host=" + host + " for 1s\n")
      .build();
}

TEST(AdlRulesTest, RedeployStrandedPicksTheLeastBackloggedHostThatVerifies) {
  auto built = build_repair_world("core");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();
  // 5ms of queued work on edge and busy; island and spare are idle, and
  // island comes first but fails verification.
  for (const char* host : {"edge", "busy"}) {
    rt->network().node(rt->host(host)).execute(rt->loop().now(), 50.0);
  }
  util::ComponentId moved;
  rt->adl_rules()->set_firing_observer(
      [&](util::Symbol, const reconfig::ReconfigReport& report) {
        ASSERT_EQ(report.steps.size(), 1u);
        EXPECT_EQ(report.steps[0].op, analysis::PlanOp::kRedeploy);
        moved = report.steps[0].swapped_to;
      });

  rt->loop().run();

  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.committed, 1u);
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(rt->app().placement(moved), rt->host("spare"));
  EXPECT_FALSE(rt->component("server").valid());
}

TEST(AdlRulesTest, CrashOfAnEmptyHostFiresNothing) {
  auto built = build_repair_world("spare");
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  rt->loop().run();
  const reconfig::RuleSet::Stats& stats = rt->adl_rules()->stats();
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_EQ(stats.suppressed, 0u);
  EXPECT_EQ(stats.actions, 0u);
  EXPECT_EQ(rt->app().placement(rt->component("server")), rt->host("core"));

  // The stranded set comes from the fault injector: no injector, no rule.
  adl::CompilationResult result = adl::compile(kRepairWorld);
  ASSERT_TRUE(result.ok());
  auto installed =
      reconfig::RuleSet::install(result.program, rt->app(), rt->engine());
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.error().code(), util::ErrorCode::kInvalidArgument);
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
