// Components the benchmark worlds deploy: an echo/ping server and a client
// with a required Echo port, matching the `Echo` and `Trigger` interfaces
// the reconfig_storm ADL declares.
#pragma once

#include <string>

#include "component/component.h"

namespace perfbench {

inline aars::component::InterfaceDescription echo_interface() {
  using aars::component::ParamSpec;
  using aars::component::ServiceSignature;
  using aars::util::ValueType;
  aars::component::InterfaceDescription desc("Echo", 1);
  desc.add_service(ServiceSignature{
      "echo", {ParamSpec{"text", ValueType::kString, false}},
      ValueType::kString});
  desc.add_service(ServiceSignature{"ping", {}, ValueType::kInt});
  return desc;
}

class EchoServer : public aars::component::Component {
 public:
  explicit EchoServer(const std::string& instance_name)
      : Component("EchoServer", instance_name) {
    using aars::util::Result;
    using aars::util::Value;
    set_provided(echo_interface());
    register_operation("echo", 1.0, [](const Value& args) -> Result<Value> {
      return Value{args.at("text").as_string()};
    });
    register_operation("ping", 0.1, [](const Value&) -> Result<Value> {
      return Value{std::int64_t{1}};
    });
  }
};

class EchoClient : public aars::component::Component {
 public:
  explicit EchoClient(const std::string& instance_name)
      : Component("EchoClient", instance_name) {
    using aars::component::ParamSpec;
    using aars::component::ServiceSignature;
    using aars::util::Result;
    using aars::util::Value;
    aars::component::InterfaceDescription provided("Trigger", 1);
    provided.add_service(ServiceSignature{
        "go", {ParamSpec{"text", aars::util::ValueType::kString, false}},
        aars::util::ValueType::kString});
    set_provided(provided);
    add_required(aars::component::RequiredPort{"out", echo_interface()});
    register_operation("go", 0.2, [this](const Value& args) -> Result<Value> {
      return call("out", "echo", Value::object({{"text", args.at("text")}}));
    });
  }
};

}  // namespace perfbench
