// Minimal components used by the experiment binaries.
#pragma once

#include <string>

#include "component/component.h"

namespace aars::bench_testing {

using component::Component;
using component::InterfaceDescription;
using component::ParamSpec;
using component::ServiceSignature;
using util::Result;
using util::Status;
using util::Value;
using util::ValueType;

inline InterfaceDescription echo_interface() {
  InterfaceDescription desc("Echo", 1);
  desc.add_service(ServiceSignature{
      "echo", {ParamSpec{"text", ValueType::kString, false}},
      ValueType::kString});
  desc.add_service(ServiceSignature{"ping", {}, ValueType::kInt});
  return desc;
}

/// Echo provider; `type_name` lets one class serve as several declared
/// implementations (e.g. a cheaper variant with less `work` per call).
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

/// Caller with a required Echo port, for worlds wired through `bind`.
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
      return call("out", "echo", Value::object({{"text", args.at("text")}}));
    });
  }
};

inline InterfaceDescription counter_interface() {
  InterfaceDescription desc("Counter", 1);
  desc.add_service(ServiceSignature{
      "add", {ParamSpec{"amount", ValueType::kInt, false}}, ValueType::kInt});
  desc.add_service(ServiceSignature{"total", {}, ValueType::kInt});
  return desc;
}

class CounterServer : public Component {
 public:
  explicit CounterServer(const std::string& instance_name)
      : Component("CounterServer", instance_name) {
    set_provided(counter_interface());
    register_operation("add", 1.0,
                       [this](const Value& args) -> Result<Value> {
                         total_ += args.at("amount").as_int();
                         set_resume_point("after_add");
                         return Value{total_};
                       });
    register_operation("total", 0.1, [this](const Value&) -> Result<Value> {
      return Value{total_};
    });
  }

  std::int64_t total() const { return total_; }

 protected:
  void save_state(Value& state) const override { state["total"] = total_; }
  Status load_state(const Value& state) override {
    if (state.contains("total")) total_ = state.at("total").as_int();
    return Status::success();
  }

 private:
  std::int64_t total_ = 0;
};

}  // namespace aars::bench_testing
