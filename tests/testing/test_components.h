// Shared test components and fixtures.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "component/component.h"
#include "component/registry.h"
#include "runtime/application.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace aars::testing {

using component::Component;
using component::InterfaceDescription;
using component::ParamSpec;
using component::ServiceSignature;
using util::Result;
using util::Status;
using util::Value;
using util::ValueType;

/// Echo v1 { echo(text: string) -> string; ping() -> int; }
inline InterfaceDescription echo_interface(int version = 1) {
  InterfaceDescription desc("Echo", version);
  desc.add_service(ServiceSignature{
      "echo", {ParamSpec{"text", ValueType::kString, false}},
      ValueType::kString});
  desc.add_service(ServiceSignature{"ping", {}, ValueType::kInt});
  return desc;
}

/// Stateless echo server.
class EchoServer : public Component {
 public:
  explicit EchoServer(const std::string& instance_name,
                      const std::string& type_name = "EchoServer",
                      double work = 1.0)
      : Component(type_name, instance_name) {
    set_provided(echo_interface());
    register_operation("echo", work, [](const Value& args) -> Result<Value> {
      return Value{args.at("text").as_string()};
    });
    register_operation("ping", work * 0.1,
                       [](const Value&) -> Result<Value> {
                         return Value{std::int64_t{1}};
                       });
  }
};

/// Counter v1 { add(amount: int) -> int; total() -> int; }
inline InterfaceDescription counter_interface(int version = 1) {
  InterfaceDescription desc("Counter", version);
  desc.add_service(ServiceSignature{
      "add", {ParamSpec{"amount", ValueType::kInt, false}}, ValueType::kInt});
  desc.add_service(ServiceSignature{"total", {}, ValueType::kInt});
  return desc;
}

/// Stateful counter with snapshot/restore support (the strong-reconfig
/// guinea pig).
class CounterServer : public Component {
 public:
  explicit CounterServer(const std::string& instance_name,
                         const std::string& type_name = "CounterServer")
      : Component(type_name, instance_name) {
    set_provided(counter_interface());
    register_operation("add", 1.0, [this](const Value& args) -> Result<Value> {
      total_ += args.at("amount").as_int();
      set_resume_point("after_add");
      return Value{total_};
    });
    register_operation("total", 0.1,
                       [this](const Value&) -> Result<Value> {
                         return Value{total_};
                       });
  }

  std::int64_t total() const { return total_; }
  void set_total(std::int64_t total) { total_ = total; }

 protected:
  void save_state(Value& state) const override { state["total"] = total_; }
  Status load_state(const Value& state) override {
    if (state.contains("total")) total_ = state.at("total").as_int();
    return Status::success();
  }

 private:
  std::int64_t total_ = 0;
};

/// A client component with a required Echo port, for nested-call tests.
class EchoClient : public Component {
 public:
  explicit EchoClient(const std::string& instance_name)
      : Component("EchoClient", instance_name) {
    InterfaceDescription provided("Trigger", 1);
    provided.add_service(ServiceSignature{
        "go", {ParamSpec{"text", ValueType::kString, false}},
        ValueType::kString});
    set_provided(provided);
    add_required(component::RequiredPort{"out", echo_interface()});
    register_operation("go", 0.2, [this](const Value& args) -> Result<Value> {
      return call("out", "echo",
                  Value::object({{"text", args.at("text")}}));
    });
  }
};

/// The fixture's interfaces, component types, nodes and links in ADL. A
/// test that compiles rules to install on the fixture's application
/// appends the instances and connectors it deployed, then the rules.
inline constexpr const char* kFixtureAdl = R"(interface Echo {
  service echo(text: string) -> string;
  service ping() -> int;
}
interface Counter {
  service add(amount: int) -> int;
  service total() -> int;
}
component EchoServer provides Echo;
component CounterServer provides Counter;
node node_a { capacity 10000; }
node node_b { capacity 10000; }
node node_c { capacity 2000; }
link node_a <-> node_b { latency 1ms; bandwidth 100mbps; }
link node_b <-> node_c { latency 1ms; bandwidth 100mbps; }
)";

/// Standard three-node application fixture.
class AppFixture : public ::testing::Test {
 protected:
  AppFixture() : app_(loop_, network_, registry_) {
    node_a_ = network_.add_node("node_a", 10000).id();
    node_b_ = network_.add_node("node_b", 10000).id();
    node_c_ = network_.add_node("node_c", 2000).id();
    sim::LinkSpec link;
    link.latency = util::milliseconds(1);
    network_.add_duplex_link(node_a_, node_b_, link);
    network_.add_duplex_link(node_b_, node_c_, link);
    registry_.register_type("EchoServer", [](const std::string& name) {
      return std::make_unique<EchoServer>(name);
    });
    registry_.register_type("CounterServer", [](const std::string& name) {
      return std::make_unique<CounterServer>(name);
    });
    registry_.register_type("EchoClient", [](const std::string& name) {
      return std::make_unique<EchoClient>(name);
    });
  }

  /// Creates a direct sync connector to a fresh provider instance.
  util::ConnectorId direct_to(const std::string& type,
                              const std::string& name, util::NodeId node) {
    auto comp = app_.instantiate(type, name, node, Value{});
    EXPECT_TRUE(comp.ok()) << (comp.ok() ? "" : comp.error().message());
    connector::ConnectorSpec spec;
    spec.name = "to_" + name;
    auto conn = app_.create_connector(spec);
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE(app_.add_provider(conn.value(), comp.value()).ok());
    return conn.value();
  }

  sim::EventLoop loop_;
  sim::Network network_;
  component::ComponentRegistry registry_;
  runtime::Application app_;
  util::NodeId node_a_;
  util::NodeId node_b_;
  util::NodeId node_c_;
};

}  // namespace aars::testing
