// Component type registry.
//
// The runtime builders and the reconfiguration engine create components by
// type name; new implementations can be registered at run-time, which is what
// makes on-line implementation modification (§1) possible.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "component/component.h"
#include "util/errors.h"

namespace aars::component {

class ComponentRegistry {
 public:
  /// Factory: builds a fresh instance with the given instance name.
  using Factory =
      std::function<std::unique_ptr<Component>(const std::string&)>;

  /// Registers (or replaces — that is the point of hot deployment) the
  /// factory for `type_name`.
  void register_type(const std::string& type_name, Factory factory);
  bool has_type(const std::string& type_name) const;
  std::vector<std::string> type_names() const;

  /// Creates an instance; kNotFound when the type is unknown.
  util::Result<std::unique_ptr<Component>> create(
      const std::string& type_name, const std::string& instance_name) const;

  /// Convenience for class types with (instance_name) constructors.
  template <typename T>
  void register_class(const std::string& type_name) {
    register_type(type_name, [](const std::string& instance_name) {
      return std::make_unique<T>(instance_name);
    });
  }

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace aars::component
