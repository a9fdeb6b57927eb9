// Injectors.
//
// "Injectors intercept communications so that new behavior can be inserted,
// for example for changing routing, or for transforming and filtering
// messages. Each injection should affect a limited set of specific
// components" (§2, [Film01]).  An Injector is a connector interceptor with
// an explicit component scope; it can transform payloads and re-route
// messages to a different serving component through the control envelope's
// route_to, which the runtime honours.
#pragma once

#include <functional>
#include <set>
#include <string>

#include "connector/connector.h"
#include "util/ids.h"

namespace aars::adapt {

class Injector final : public connector::Interceptor {
 public:
  using Transform = std::function<void(component::Message&)>;

  explicit Injector(std::string name);

  /// Limits the injection to messages targeting/sent by these components.
  /// An empty scope (default) means the injector applies to all traffic —
  /// callers are expected to scope injections narrowly.
  Injector& scope_to(std::set<util::ComponentId> components);
  /// Re-routes matching messages to `target`.
  Injector& redirect_to(util::ComponentId target);
  /// Applies a payload/header transformation.
  Injector& transform(Transform transform);
  /// Drops matching messages matching `predicate` (filtering behaviour).
  Injector& drop_when(
      std::function<bool(const component::Message&)> predicate);

  Verdict before(component::Message& request,
                 util::Result<util::Value>* reply_out) override;
  void after(const component::Message& request,
             util::Result<util::Value>& reply) override;
  std::string name() const override { return name_; }

  std::uint64_t injected() const { return injected_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool in_scope(const component::Message& message) const;

  std::string name_;
  std::set<util::ComponentId> scope_;
  util::ComponentId redirect_target_;
  Transform transform_;
  std::function<bool(const component::Message&)> drop_predicate_;
  std::uint64_t injected_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace aars::adapt
