#include "adapt/injector.h"

#include <gtest/gtest.h>

#include "testing/test_components.h"

namespace aars::adapt {
namespace {

using aars::testing::AppFixture;
using aars::testing::CounterServer;
using component::Message;
using util::ErrorCode;
using util::Result;
using util::Value;

TEST(InjectorTest, TransformRewritesPayload) {
  Injector injector("xform");
  injector.transform([](Message& m) { m.payload["injected"] = true; });
  Message m;
  m.payload = Value::object({});
  Result<Value> reply = Value{};
  EXPECT_EQ(injector.before(m, &reply),
            connector::Interceptor::Verdict::kPass);
  EXPECT_TRUE(m.payload.at("injected").as_bool());
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(InjectorTest, RedirectSetsRoutingHeader) {
  Injector injector("route");
  injector.redirect_to(util::ComponentId{77});
  Message m;
  Result<Value> reply = Value{};
  (void)injector.before(m, &reply);
  EXPECT_EQ(m.control.route_to, util::ComponentId{77});
}

TEST(InjectorTest, DropPredicateBlocks) {
  Injector injector("dropper");
  injector.drop_when(
      [](const Message& m) { return m.operation == "forbidden"; });
  Message bad;
  bad.operation = "forbidden";
  Message good;
  good.operation = "fine";
  Result<Value> reply = Value{};
  EXPECT_EQ(injector.before(bad, &reply),
            connector::Interceptor::Verdict::kBlock);
  EXPECT_EQ(reply.error().code(), ErrorCode::kRejected);
  EXPECT_EQ(injector.before(good, &reply),
            connector::Interceptor::Verdict::kPass);
  EXPECT_EQ(injector.dropped(), 1u);
}

TEST(InjectorTest, ScopeLimitsEffect) {
  // "Each injection should affect a limited set of specific components."
  Injector injector("scoped");
  injector.scope_to({util::ComponentId{5}});
  injector.transform([](Message& m) { m.headers["touched"] = true; });
  Message in_scope;
  in_scope.target = util::ComponentId{5};
  Message out_of_scope;
  out_of_scope.target = util::ComponentId{6};
  Result<Value> reply = Value{};
  (void)injector.before(in_scope, &reply);
  (void)injector.before(out_of_scope, &reply);
  EXPECT_TRUE(in_scope.headers.contains("touched"));
  EXPECT_FALSE(out_of_scope.headers.contains("touched"));
}

TEST(InjectorTest, SenderScopeAlsoMatches) {
  Injector injector("scoped");
  injector.scope_to({util::ComponentId{9}});
  injector.transform([](Message& m) { m.headers["touched"] = true; });
  Message from_sender;
  from_sender.sender = util::ComponentId{9};
  Result<Value> reply = Value{};
  (void)injector.before(from_sender, &reply);
  EXPECT_TRUE(from_sender.headers.contains("touched"));
}

class InjectorRuntimeTest : public AppFixture {};

TEST_F(InjectorRuntimeTest, RedirectsTrafficToAnotherComponent) {
  // Traffic addressed through the connector to "main" is re-routed to
  // "shadow" by an injector, without rebinding anything.
  const auto conn = direct_to("CounterServer", "main", node_a_);
  auto shadow = app_.instantiate("CounterServer", "shadow", node_b_, Value{});
  ASSERT_TRUE(shadow.ok());

  auto injector = std::make_shared<Injector>("shadow_route");
  injector->redirect_to(shadow.value());
  ASSERT_TRUE(
      app_.find_connector(conn)->attach_interceptor(injector).ok());

  (void)app_.send_event(conn, "add", Value::object({{"amount", 4}}),
                        node_c_);
  loop_.run();

  auto* main_counter = dynamic_cast<CounterServer*>(
      app_.find_component(app_.component_id("main")));
  auto* shadow_counter =
      dynamic_cast<CounterServer*>(app_.find_component(shadow.value()));
  EXPECT_EQ(main_counter->total(), 0);
  EXPECT_EQ(shadow_counter->total(), 4);
}

TEST_F(InjectorRuntimeTest, RedirectToMissingComponentFailsCall) {
  const auto conn = direct_to("EchoServer", "e", node_a_);
  auto injector = std::make_shared<Injector>("bad_route");
  injector->redirect_to(util::ComponentId{424242});
  ASSERT_TRUE(
      app_.find_connector(conn)->attach_interceptor(injector).ok());
  auto outcome = app_.invoke_sync(conn, "ping", Value{}, node_b_);
  EXPECT_FALSE(outcome.result.ok());
  EXPECT_EQ(outcome.result.error().code(), ErrorCode::kNotFound);
}

TEST_F(InjectorRuntimeTest, FilteringInjectorDropsMatchingTraffic) {
  const auto conn = direct_to("CounterServer", "c", node_a_);
  auto injector = std::make_shared<Injector>("filter");
  injector->drop_when([](const Message& m) {
    return m.payload.at("amount").as_int() < 0;
  });
  ASSERT_TRUE(
      app_.find_connector(conn)->attach_interceptor(injector).ok());
  (void)app_.send_event(conn, "add", Value::object({{"amount", 5}}),
                        node_b_);
  (void)app_.send_event(conn, "add", Value::object({{"amount", -3}}),
                        node_b_);
  loop_.run();
  auto* counter = dynamic_cast<CounterServer*>(
      app_.find_component(app_.component_id("c")));
  EXPECT_EQ(counter->total(), 5);
  EXPECT_EQ(injector->dropped(), 1u);
}

}  // namespace
}  // namespace aars::adapt
