#include "meta/raml.h"

#include <gtest/gtest.h>

#include <string>

#include "adl/compiler.h"
#include "testing/test_components.h"

namespace aars::meta {
namespace {

using aars::testing::AppFixture;
using util::Value;

class RamlTest : public AppFixture {
 protected:
  RamlTest() : engine_(app_), raml_(app_, util::milliseconds(10)) {}

  /// Compiles `decls` (the instances and connectors the test deployed by
  /// hand, then rules over them) against the fixture's declarations and
  /// installs the rules into RAML.
  std::shared_ptr<reconfig::RuleSet> install(const std::string& decls) {
    const adl::CompilationResult compiled =
        adl::compile(std::string(aars::testing::kFixtureAdl) + decls);
    EXPECT_TRUE(compiled.ok())
        << adl::render_text(compiled.diagnostics, "<rules>");
    auto rules = reconfig::RuleSet::install(compiled.program, app_, engine_);
    EXPECT_TRUE(rules.ok()) << rules.error().message();
    raml_.install_rule_set(rules.value());
    return rules.value();
  }

  /// Queues 200 echo calls on node_c: about 100 ms of backlog.
  void saturate_node_c(util::ConnectorId conn) {
    for (int i = 0; i < 200; ++i) {
      (void)app_.invoke_sync(conn, "echo", Value::object({{"text", "x"}}),
                             node_b_);
    }
  }

  reconfig::ReconfigurationEngine engine_;
  Raml raml_;
};

// Alternates `svc` between two instances every firing; the replace of an
// idle instance settles well inside one 10 ms tick.
constexpr const char* kRefresh = R"(instance svc: EchoServer on node_a;
instance hot: EchoServer on node_c;
when backlog(node_c) > 1000 reconfigure refresh {
  replace svc with EchoServer;
}
)";

TEST_F(RamlTest, PeriodicTicksSampleSensors) {
  (void)direct_to("EchoServer", "svc", node_a_);
  (void)direct_to("EchoServer", "hot", node_c_);
  const auto rules = install(kRefresh);
  raml_.start();
  loop_.run_until(util::milliseconds(35));
  EXPECT_EQ(raml_.ticks(), 3u);
  EXPECT_EQ(rules->stats().evaluations, 3u);
  raml_.stop();
  loop_.run_until(util::milliseconds(100));
  EXPECT_EQ(raml_.ticks(), 3u);
  EXPECT_EQ(rules->stats().evaluations, 3u);
  EXPECT_EQ(raml_.actions_taken(), 0u);
}

TEST_F(RamlTest, RuleFiresEveryTickWhileItsConditionHolds) {
  (void)direct_to("EchoServer", "svc", node_a_);
  const auto hot = direct_to("EchoServer", "hot", node_c_);
  const auto rules = install(kRefresh);
  raml_.start();
  loop_.run_until(util::milliseconds(25));
  EXPECT_EQ(raml_.actions_taken(), 0u);
  saturate_node_c(hot);
  loop_.run_until(util::milliseconds(55));
  // Fires at 30, 40 and 50 ms: no cooldown, and each firing commits
  // before the next tick.
  EXPECT_EQ(raml_.actions_taken(), 3u);
  EXPECT_EQ(rules->stats().committed, 3u);
  EXPECT_EQ(rules->stats().suppressed, 0u);
}

TEST_F(RamlTest, CooldownSpacesActions) {
  (void)direct_to("EchoServer", "svc", node_a_);
  const auto hot = direct_to("EchoServer", "hot", node_c_);
  install(R"(instance svc: EchoServer on node_a;
instance hot: EchoServer on node_c;
when backlog(node_c) > 1000 reconfigure expensive {
  cooldown 30ms;
  replace svc with EchoServer;
}
)");
  saturate_node_c(hot);
  raml_.start();
  loop_.run_until(util::milliseconds(65));  // ticks at 10..60
  EXPECT_EQ(raml_.actions_taken(), 2u);  // fired at 10ms and 40ms
}

TEST_F(RamlTest, RuleCanDriveReconfiguration) {
  const auto conn = direct_to("CounterServer", "old", node_a_);
  (void)app_.send_event(conn, "add", Value::object({{"amount", 9}}),
                        node_b_);
  loop_.run();

  const auto hot = direct_to("EchoServer", "hot", node_c_);
  const auto rules = install(R"(instance old: CounterServer on node_a;
instance hot: EchoServer on node_c;
when backlog(node_c) > 1000 reconfigure upgrade {
  cooldown 10s;
  replace old with CounterServer as new;
}
)");
  bool replaced = false;
  rules->set_firing_observer(
      [&replaced](util::Symbol, const reconfig::ReconfigReport& r) {
        replaced = r.verdict == reconfig::TxnVerdict::kCommitted;
      });
  saturate_node_c(hot);
  raml_.start();
  loop_.run_until(util::milliseconds(100));
  ASSERT_TRUE(replaced);
  EXPECT_TRUE(app_.component_id("new").valid());
  // State survived the rule-driven swap.
  auto outcome = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(outcome.result.value().as_int(), 9);
}

TEST_F(RamlTest, QosViolationEmitsRuleEvent) {
  auto monitor = std::make_shared<qos::QosMonitor>(
      loop_,
      [] {
        qos::QosContract contract;
        contract.name = "svc";
        contract.max_mean_latency = util::milliseconds(1);
        return contract;
      }(),
      util::seconds(1));
  raml_.watch(monitor);
  int violations_seen = 0;
  raml_.rules().subscribe("qos_violation",
                          [&](const Event&) { ++violations_seen; });
  monitor->record_call(util::milliseconds(100), true);  // way over bound
  raml_.start();
  loop_.run_until(util::milliseconds(25));
  EXPECT_GE(violations_seen, 1);
}

TEST_F(RamlTest, ManualTickWorksWithoutStart) {
  (void)direct_to("EchoServer", "svc", node_a_);
  (void)direct_to("EchoServer", "hot", node_c_);
  const auto rules = install(kRefresh);
  raml_.tick();
  EXPECT_EQ(raml_.ticks(), 1u);
  EXPECT_EQ(rules->stats().evaluations, 1u);
}

}  // namespace
}  // namespace aars::meta
