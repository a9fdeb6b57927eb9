// End-to-end scenarios: ADL deployment, live traffic, meta-level
// management and reconfiguration working together.
#include <gtest/gtest.h>

#include "adapt/aspect_library.h"
#include "adl/compiler.h"
#include "meta/raml.h"
#include "reconfig/engine.h"
#include "runtime/deployer.h"
#include "telecom/media.h"
#include "testing/test_components.h"

namespace aars {
namespace {

using testing::AppFixture;
using util::Value;

class EndToEndTest : public AppFixture {
 protected:
  EndToEndTest() {
    telecom::register_media_components(registry_);
    adapt::register_standard_aspects(app_.connector_factory());
  }
};

TEST_F(EndToEndTest, DeployedMediaPipelineServesUnderLoad) {
  // The fixture network already has node_a..c; the deployment adds its own
  // nodes and connectors. External clients attach the provider explicitly.
  const char* config = R"(
    interface MediaService {
      service frame(session: int, optional quality: int) -> map;
    }
    component MediaServer provides MediaService;
    node access { capacity 3000; }
    node backbone { capacity 20000; }
    link access <-> backbone { latency 3ms; bandwidth 100mbps; }
    instance media: MediaServer on backbone;
    connector svc { routing direct; delivery sync; aspects [metrics]; }
  )";
  const adl::CompilationResult compiled = adl::compile(config);
  ASSERT_TRUE(compiled.ok()) << adl::render_text(compiled.diagnostics,
                                                 "<input>", config);
  auto deployment = runtime::deploy(compiled.config, app_);
  ASSERT_TRUE(deployment.ok()) << deployment.error().message();
  const auto svc = deployment.value().connectors.at("svc");
  ASSERT_TRUE(
      app_.add_provider(svc, deployment.value().instances.at("media")).ok());

  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    app_.invoke_async(svc, "frame",
                      Value::object({{"session", 1}, {"quality", 2}}),
                      deployment.value().nodes.at("access"),
                      [&](util::Result<Value> r, util::Duration) {
                        if (r.ok()) ++ok;
                      });
  }
  loop_.run();
  EXPECT_EQ(ok, 100);
  EXPECT_EQ(app_.failed_calls(), 0u);
}

TEST_F(EndToEndTest, HotSwapUnderDeployedTraffic) {
  const auto conn = direct_to("CounterServer", "svc_v1", node_a_);
  const auto v1 = app_.component_id("svc_v1");
  reconfig::ReconfigurationEngine engine(app_);

  // Continuous traffic at 1000 events/sec.
  int sent = 0;
  std::function<void()> pump = [&] {
    if (loop_.now() > util::seconds(2)) return;
    ++sent;
    (void)app_.send_event(conn, "add", Value::object({{"amount", 1}}),
                          node_b_);
    loop_.schedule_after(util::milliseconds(1), pump);
  };
  loop_.schedule_after(0, pump);

  // Three successive hot swaps while traffic flows.
  std::vector<std::string> versions{"v2", "v3", "v4"};
  std::function<void(util::ComponentId, std::size_t)> swap_next =
      [&](util::ComponentId current, std::size_t index) {
        if (index >= versions.size()) return;
        loop_.schedule_after(util::milliseconds(300), [&, current, index] {
          engine.replace_component(
              current, "CounterServer", "svc_" + versions[index],
              [&, index](const reconfig::ReconfigReport& report) {
                ASSERT_TRUE(report.ok()) << report.error_message();
                swap_next(report.new_component, index + 1);
              });
        });
      };
  swap_next(v1, 0);
  loop_.run();

  // All events accounted for across three generations of the component.
  EXPECT_EQ(app_.messages_dropped(), 0u);
  EXPECT_EQ(app_.messages_duplicated(), 0u);
  const auto final_id = app_.component_id("svc_v4");
  ASSERT_TRUE(final_id.valid());
  auto* counter = dynamic_cast<testing::CounterServer*>(
      app_.find_component(final_id));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->total(), sent);
}

TEST_F(EndToEndTest, RamlClosesTheLoopOnOverload) {
  // MAPE loop: monitor node backlog -> migrate the hot component.
  const auto conn = direct_to("EchoServer", "hot", node_c_);  // slow node
  const auto hot = app_.component_id("hot");
  reconfig::ReconfigurationEngine engine(app_);
  meta::Raml raml(app_, engine, util::milliseconds(50));
  raml.add_sensor("backlog", [this] {
    return static_cast<double>(
        network_.node(node_c_).backlog(loop_.now()));
  });
  int migrations = 0;
  raml.add_policy(meta::Policy{
      "offload",
      [](const meta::MetricSample& s) { return s.get("backlog") > 5000; },
      [&](meta::Raml& r) {
        r.engine().migrate_component(
            hot, node_a_, [&](const reconfig::ReconfigReport& report) {
              if (report.ok()) ++migrations;
            });
      },
      util::seconds(10)});
  raml.start();

  // Saturating traffic.
  std::function<void()> pump = [&] {
    if (loop_.now() > util::seconds(1)) return;
    app_.invoke_async(conn, "echo", Value::object({{"text", "x"}}),
                      node_b_, [](util::Result<Value>, util::Duration) {});
    loop_.schedule_after(util::microseconds(300), pump);
  };
  loop_.schedule_after(0, pump);
  // The periodic MAPE tick keeps the loop alive; bound the session.
  loop_.schedule_at(util::seconds(3), [&] { raml.stop(); });
  loop_.run();

  EXPECT_EQ(migrations, 1);
  EXPECT_EQ(app_.placement(hot), node_a_);
  EXPECT_GE(raml.ticks(), 10u);
}

TEST_F(EndToEndTest, MetricsAspectObservesDeployedTraffic) {
  connector::ConnectorSpec spec;
  spec.name = "observed";
  auto conn = app_.create_connector(spec, {"metrics"});
  ASSERT_TRUE(conn.ok()) << conn.error().message();
  auto server = app_.instantiate("EchoServer", "e", node_a_, Value{});
  ASSERT_TRUE(app_.add_provider(conn.value(), server.value()).ok());
  for (int i = 0; i < 7; ++i) {
    (void)app_.invoke_sync(conn.value(), "ping", Value{}, node_b_);
  }
  // Introspect the attached aspect through the connector.
  connector::Connector* connector = app_.find_connector(conn.value());
  ASSERT_EQ(connector->interceptor_names(),
            (std::vector<std::string>{"metrics"}));
  EXPECT_EQ(connector->relayed(), 7u);
}

}  // namespace
}  // namespace aars
