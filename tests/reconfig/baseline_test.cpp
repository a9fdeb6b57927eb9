#include "reconfig/baseline.h"

#include <gtest/gtest.h>

#include "testing/test_components.h"

namespace aars::reconfig {
namespace {

using aars::testing::AppFixture;
using aars::testing::CounterServer;
using util::Value;

class BaselineTest : public AppFixture {};

TEST_F(BaselineTest, ReplacesAfterOutage) {
  StopRestartReconfigurator::Options options;
  options.restart_delay = util::milliseconds(20);
  StopRestartReconfigurator baseline(app_, options);
  direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");

  ReconfigReport report;
  bool done = false;
  baseline.replace_component(old_id, "CounterServer", "new",
                             [&](const ReconfigReport& r) {
                               report = r;
                               done = true;
                             });
  loop_.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_GE(report.duration(), util::milliseconds(20));
  // New instance starts from clean state (no transfer).
  auto* replacement = dynamic_cast<CounterServer*>(
      app_.find_component(report.new_component));
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->total(), 0);
}

TEST_F(BaselineTest, StateIsLost) {
  StopRestartReconfigurator baseline(app_);
  const auto conn = direct_to("CounterServer", "old", node_a_);
  const auto old_id = app_.component_id("old");
  (void)app_.send_event(conn, "add", Value::object({{"amount", 42}}),
                        node_b_);
  loop_.run();
  ReconfigReport report;
  baseline.replace_component(old_id, "CounterServer", "new",
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  ASSERT_TRUE(report.ok());
  auto outcome = app_.invoke_sync(conn, "total", Value{}, node_b_);
  ASSERT_TRUE(outcome.result.ok());
  EXPECT_EQ(outcome.result.value().as_int(), 0);  // the 42 is gone
}

TEST_F(BaselineTest, CallsDuringOutageFail) {
  StopRestartReconfigurator::Options options;
  options.restart_delay = util::milliseconds(50);
  StopRestartReconfigurator baseline(app_, options);
  const auto conn = direct_to("EchoServer", "old", node_a_);
  const auto old_id = app_.component_id("old");

  baseline.replace_component(old_id, "EchoServer", "new",
                             [](const ReconfigReport&) {});
  int failures = 0;
  int successes = 0;
  // Call mid-outage.
  loop_.schedule_after(util::milliseconds(10), [&] {
    auto outcome = app_.invoke_sync(conn, "ping", Value{}, node_b_);
    outcome.result.ok() ? ++successes : ++failures;
  });
  // Call after recovery.
  loop_.schedule_after(util::milliseconds(100), [&] {
    auto outcome = app_.invoke_sync(conn, "ping", Value{}, node_b_);
    outcome.result.ok() ? ++successes : ++failures;
  });
  loop_.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(successes, 1);
}

TEST_F(BaselineTest, UnknownComponentFails) {
  StopRestartReconfigurator baseline(app_);
  ReconfigReport report;
  baseline.replace_component(util::ComponentId{12345}, "EchoServer", "x",
                             [&](const ReconfigReport& r) { report = r; });
  loop_.run();
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace aars::reconfig
