#include "adapt/injector.h"

#include "util/errors.h"

namespace aars::adapt {

using component::Message;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Value;

Injector::Injector(std::string name) : name_(std::move(name)) {}

Injector& Injector::scope_to(std::set<util::ComponentId> components) {
  scope_ = std::move(components);
  return *this;
}

Injector& Injector::redirect_to(util::ComponentId target) {
  redirect_target_ = target;
  return *this;
}

Injector& Injector::transform(Transform transform) {
  transform_ = std::move(transform);
  return *this;
}

Injector& Injector::drop_when(
    std::function<bool(const Message&)> predicate) {
  drop_predicate_ = std::move(predicate);
  return *this;
}

bool Injector::in_scope(const Message& message) const {
  if (scope_.empty()) return true;
  return scope_.count(message.sender) > 0 || scope_.count(message.target) > 0;
}

connector::Interceptor::Verdict Injector::before(Message& request,
                                                 Result<Value>* reply_out) {
  if (!in_scope(request)) return Verdict::kPass;
  if (drop_predicate_ && drop_predicate_(request)) {
    ++dropped_;
    if (reply_out != nullptr) {
      *reply_out = Result<Value>(
          Error{ErrorCode::kRejected, name_ + ": dropped by injector"});
    }
    return Verdict::kBlock;
  }
  bool acted = false;
  if (transform_) {
    transform_(request);
    acted = true;
  }
  if (redirect_target_.valid()) {
    request.control.route_to = redirect_target_;
    acted = true;
  }
  if (acted) ++injected_;
  return Verdict::kPass;
}

void Injector::after(const Message& /*request*/, Result<Value>& /*reply*/) {}

}  // namespace aars::adapt
