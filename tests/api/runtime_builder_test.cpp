// The Runtime builder is the canonical entry point: it validates the whole
// declaration up front and returns contextual errors instead of
// half-constructing a world.
#include "api/runtime.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "testing/test_components.h"
#include "util/time.h"

namespace aars {
namespace {

using aars::testing::CounterServer;
using aars::testing::EchoServer;
using util::ErrorCode;
using util::Value;

sim::LinkSpec ms_link(int ms) {
  sim::LinkSpec link;
  link.latency = util::milliseconds(ms);
  return link;
}

connector::ConnectorSpec named(const std::string& name) {
  connector::ConnectorSpec spec;
  spec.name = name;
  return spec;
}

TEST(RuntimeBuilderTest, BuildsAWorkingWorldWithNameLookups) {
  auto built = Runtime::builder()
                   .seed(7)
                   .host("a", 10000)
                   .host("b", 10000)
                   .link("a", "b", ms_link(1))
                   .component_class<EchoServer>("EchoServer")
                   .deploy("EchoServer", "svc", "a")
                   .connect(named("front"), {"svc"})
                   .build();
  ASSERT_TRUE(built.ok()) << built.error().message();
  auto rt = std::move(built).value();

  EXPECT_TRUE(rt->network().has_link(rt->host("a"), rt->host("b")));
  EXPECT_EQ(rt->app().placement(rt->component("svc")), rt->host("a"));
  auto out = rt->app().invoke_sync(rt->connector("front"), "echo",
                                   Value::object({{"text", "hi"}}),
                                   rt->host("b"));
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.result.value().as_string(), "hi");
  EXPECT_FALSE(rt->has_raml());
}

TEST(RuntimeBuilderTest, DuplicateHostIsAlreadyExists) {
  auto built =
      Runtime::builder().host("a", 1000).host("a", 2000).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code(), ErrorCode::kAlreadyExists);
  EXPECT_NE(built.error().message().find("a"), std::string::npos);
}

TEST(RuntimeBuilderTest, UnknownNamesAreNotFoundWithContext) {
  // Link endpoint that was never declared.
  EXPECT_EQ(Runtime::builder()
                .host("a", 1000)
                .link("a", "ghost", ms_link(1))
                .build()
                .error()
                .code(),
            ErrorCode::kNotFound);
  // Deploy onto an unknown host.
  EXPECT_EQ(Runtime::builder()
                .host("a", 1000)
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "svc", "ghost")
                .build()
                .error()
                .code(),
            ErrorCode::kNotFound);
  // Connector provider that was never deployed.
  EXPECT_EQ(Runtime::builder()
                .host("a", 1000)
                .connect(named("front"), {"ghost"})
                .build()
                .error()
                .code(),
            ErrorCode::kNotFound);
  // Retry policy on an unknown connector.
  EXPECT_EQ(Runtime::builder()
                .host("a", 1000)
                .with_retry("ghost", fault::RetryPolicy{})
                .build()
                .error()
                .code(),
            ErrorCode::kNotFound);
}

TEST(RuntimeBuilderTest, MalformedFaultTextIsAParseError) {
  auto built = Runtime::builder()
                   .host("a", 1000)
                   .with_fault_text("at 1s explode host=a for 1s\n")
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code(), ErrorCode::kParseError);
}

TEST(RuntimeBuilderTest, WithRamlExposesTheManagementLayer) {
  auto rt = Runtime::builder()
                .host("a", 1000)
                .with_raml(util::milliseconds(10))
                .build()
                .value();
  ASSERT_TRUE(rt->has_raml());
  rt->raml().start();
  rt->raml().stop();
}

TEST(RuntimeBuilderTest, ArmedScenarioFiresOnTheTimeline) {
  auto rt = Runtime::builder()
                .host("a", 10000)
                .host("b", 10000)
                .link("a", "b", ms_link(1))
                .with_fault_text("at 1ms crash host=b for 2ms\n")
                .build()
                .value();
  bool down_during = false;
  rt->loop().schedule_at(util::milliseconds(2), [&] {
    down_during = !rt->faults().host_up(rt->host("b"));
  });
  rt->run();
  EXPECT_TRUE(down_during);
  EXPECT_TRUE(rt->faults().host_up(rt->host("b")));
  EXPECT_EQ(rt->faults().injected(), 2u);
}

TEST(RuntimeBuilderTest, BindWiresARequiredPortThroughAConnector) {
  auto rt = Runtime::builder()
                .host("a", 10000)
                .host("b", 10000)
                .link("a", "b", ms_link(1))
                .component_class<EchoServer>("EchoServer")
                .component_class<aars::testing::EchoClient>("EchoClient")
                .deploy("EchoServer", "svc", "a")
                .deploy("EchoClient", "cli", "b")
                .connect(named("front"), {"svc"})
                .bind("cli", "out", "front")
                .build()
                .value();
  connector::ConnectorSpec trigger = named("trigger");
  auto conn = rt->app().create_connector(trigger).value();
  ASSERT_TRUE(rt->app().add_provider(conn, rt->component("cli")).ok());
  auto out = rt->app().invoke_sync(conn, "go",
                                   Value::object({{"text", "nested"}}),
                                   rt->host("a"));
  ASSERT_TRUE(out.result.ok()) << out.result.error().message();
  EXPECT_EQ(out.result.value().as_string(), "nested");
}

TEST(RuntimeBuilderTest, WithVerificationGatesTheEngine) {
  auto rt = Runtime::builder()
                .host("a", 10000)
                .host("b", 10000)
                .link("a", "b", ms_link(1))
                .component_class<EchoServer>("EchoServer")
                .component_class<aars::testing::EchoClient>("EchoClient")
                .deploy("EchoServer", "svc", "a")
                .deploy("EchoClient", "cli", "b")
                .connect(named("front"), {"svc"})
                .bind("cli", "out", "front")
                .with_verification(analysis::VerifyMode::kEnforce)
                .build()
                .value();
  EXPECT_EQ(rt->engine().options().verify_mode,
            analysis::VerifyMode::kEnforce);

  // Removing the sole provider behind a live binding fails verification.
  reconfig::ReconfigReport report;
  rt->engine().remove_component(
      rt->component("svc"),
      [&](const reconfig::ReconfigReport& r) { report = r; });
  rt->loop().run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status.code(), ErrorCode::kVerificationFailed);
  EXPECT_NE(rt->app().find_component(rt->component("svc")), nullptr);
}

TEST(RuntimeBuilderTest, ChannelLimitsAndTraceRingReachTheWorld) {
  auto rt = Runtime::builder()
                .host("a", 10000)
                .host("b", 10000)
                .link("a", "b", ms_link(1))
                .component_class<EchoServer>("EchoServer")
                .deploy("EchoServer", "svc", "a")
                .connect(named("to_svc"), {"svc"})
                .channel_limits(5, 17)
                .trace_ring(64)
                .build()
                .value();
  runtime::Channel& chan =
      rt->app().channel(rt->connector("to_svc"), rt->component("svc"));
  EXPECT_EQ(chan.hold_limit(), 5u);
  EXPECT_EQ(chan.audit_window(), 17u);
  EXPECT_EQ(obs::Registry::global().trace_buffer().capacity(), 64u);
  // Restore the process-wide default for the other tests.
  obs::Registry::global().set_trace_capacity(
      obs::Registry::kDefaultTraceCapacity);
}

TEST(RuntimeBuilderTest, VerificationMaxStatesIsForwarded) {
  auto rt = Runtime::builder()
                .host("a", 10000)
                .component_class<EchoServer>("EchoServer")
                .with_verification(analysis::VerifyMode::kWarn, 512)
                .build()
                .value();
  EXPECT_EQ(rt->engine().options().verify_mode, analysis::VerifyMode::kWarn);
  EXPECT_EQ(rt->engine().options().verify_max_states, 512u);
}

std::string read_config(const std::string& relative) {
  std::ifstream in(std::string(AARS_CONFIG_DIR) + "/" + relative);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every ADL compile failure, whichever stage found it, reaches the caller
// as kParseError carrying the first error's "line L col C: message".
TEST(RuntimeBuilderTest, AdlSemaFailureIsAParseError) {
  auto built = Runtime::builder()
                   .adl(read_config("defects/d12_unknown_metric.adl"))
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(built.error().message(),
            "line 8 col 6: unknown condition metric 'qdepth' (expected "
            "queue_depth, backlog or fault.active)");
}

TEST(RuntimeBuilderTest, AdlScreenFailureIsAParseError) {
  auto built = Runtime::builder()
                   .adl(read_config("defects/d16_rule_plan_unverifiable.adl"))
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(built.error().message(),
            "line 20 col 1: rule 'strand': driver.work -> worker: no route "
            "from node 'client' to node 'island'");
}

}  // namespace
}  // namespace aars
