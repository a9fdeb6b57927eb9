#include "runtime/deployer.h"

#include <gtest/gtest.h>

#include "adl/compiler.h"
#include "testing/test_components.h"

namespace aars::runtime {
namespace {

using util::ErrorCode;
using util::Value;

constexpr const char* kEchoConfig = R"(
  interface Echo {
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
  node edge { capacity 2000; }
  node core { capacity 10000; }
  link edge <-> core { latency 2ms; bandwidth 100mbps; }
  instance server: EchoServer on core;
  instance client: EchoClient on edge;
  connector main { routing direct; delivery sync; }
  bind client.out -> server via main;
)";

class DeployerTest : public ::testing::Test {
 protected:
  DeployerTest() : app_(loop_, network_, registry_) {
    registry_.register_type("EchoServer", [](const std::string& name) {
      return std::make_unique<aars::testing::EchoServer>(name);
    });
    registry_.register_type("EchoClient", [](const std::string& name) {
      return std::make_unique<aars::testing::EchoClient>(name);
    });
    registry_.register_type("CounterServer", [](const std::string& name) {
      return std::make_unique<aars::testing::CounterServer>(name);
    });
  }

  /// Compiles `source` and deploys it into app_, the way the runtime
  /// builder does: a compile failure comes back as its first error.
  util::Result<Deployment> deploy_adl(std::string_view source) {
    const adl::CompilationResult compiled = adl::compile(source);
    if (!compiled.ok()) return compiled.diagnostics.to_error();
    return deploy(compiled.config, app_);
  }

  sim::EventLoop loop_;
  sim::Network network_;
  component::ComponentRegistry registry_;
  Application app_;
};

TEST_F(DeployerTest, DeploysFullTopology) {
  auto deployment = deploy_adl(kEchoConfig);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message();
  EXPECT_EQ(deployment.value().nodes.size(), 2u);
  EXPECT_EQ(deployment.value().instances.size(), 2u);
  EXPECT_EQ(deployment.value().connectors.size(), 1u);
  EXPECT_NE(network_.find_node("edge"), nullptr);
  EXPECT_TRUE(network_.has_link(network_.node_id("edge"),
                                network_.node_id("core")));
}

TEST_F(DeployerTest, DeployedApplicationServesCalls) {
  auto deployment = deploy_adl(kEchoConfig);
  ASSERT_TRUE(deployment.ok());
  const auto client = deployment.value().instances.at("client");
  auto outcome = app_.invoke_component(
      client, "go", Value::object({{"text", "deployed"}}),
      deployment.value().nodes.at("edge"));
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
  EXPECT_EQ(outcome.result.value().as_string(), "deployed");
}

TEST_F(DeployerTest, MissingImplementationFails) {
  const char* config = R"(
    component Mystery;
    node n { capacity 1; }
    instance m: Mystery on n;
  )";
  auto deployment = deploy_adl(config);
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.error().code(), ErrorCode::kNotFound);
}

TEST_F(DeployerTest, ImplementationMustHonourDeclaredInterface) {
  // The ADL promises Echo with a service the C++ EchoServer lacks.
  const char* config = R"(
    interface Echo version 1 {
      service echo(text: string) -> string;
      service shout(text: string) -> string;
    }
    component EchoServer provides Echo;
    node n { capacity 1; }
    instance s: EchoServer on n;
  )";
  auto deployment = deploy_adl(config);
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.error().code(), ErrorCode::kIncompatible);
}

TEST_F(DeployerTest, AttributeDefaultsAndOverridesMerge) {
  const char* config = R"(
    interface Counter {
      service add(amount: int) -> int;
      service total() -> int;
    }
    component CounterServer provides Counter {
      attribute label: string = "default";
      attribute limit: int = 10;
    }
    node n { capacity 100; }
    instance c: CounterServer on n { limit = 99; }
  )";
  auto deployment = deploy_adl(config);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message();
  const component::Component* comp =
      app_.find_component(deployment.value().instances.at("c"));
  EXPECT_EQ(comp->attributes().at("label").as_string(), "default");
  EXPECT_EQ(comp->attributes().at("limit").as_int(), 99);
}

TEST_F(DeployerTest, ImplicitConnectorForBareBinding) {
  const char* config = R"(
    interface Echo {
      service echo(text: string) -> string;
      service ping() -> int;
    }
    component EchoServer provides Echo;
    component EchoClient { requires out: Echo; }
    node n { capacity 1000; }
    instance s: EchoServer on n;
    instance c: EchoClient on n;
    bind c.out -> s;
  )";
  auto deployment = deploy_adl(config);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message();
  const auto client = deployment.value().instances.at("c");
  EXPECT_TRUE(app_.binding(client, "out").valid());
}

TEST_F(DeployerTest, ParseErrorsPropagate) {
  auto deployment = deploy_adl("not a config");
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(deployment.error().message().rfind("line 1 col 1: ", 0), 0u)
      << deployment.error().message();
  EXPECT_TRUE(app_.component_ids().empty());
}

TEST_F(DeployerTest, ValidationErrorsPropagate) {
  auto deployment = deploy_adl("component C provides Ghost;");
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(deployment.error().message(),
            "line 1 col 1: C provides unknown interface 'Ghost'");
}

TEST_F(DeployerTest, MultiProviderBindingAttachesAll) {
  const char* config = R"(
    interface Echo {
      service echo(text: string) -> string;
      service ping() -> int;
    }
    component EchoServer provides Echo;
    component EchoClient { requires out: Echo; }
    node n { capacity 1000; }
    instance s1: EchoServer on n;
    instance s2: EchoServer on n;
    instance c: EchoClient on n;
    connector lb { routing round_robin; }
    bind c.out -> s1, s2 via lb;
  )";
  auto deployment = deploy_adl(config);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message();
  connector::Connector* conn =
      app_.find_connector(deployment.value().connectors.at("lb"));
  EXPECT_EQ(conn->providers().size(), 2u);
}

}  // namespace
}  // namespace aars::runtime
