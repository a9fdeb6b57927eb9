#include "fault/policies.h"

#include <memory>

#include "component/message.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace aars::fault {

using component::Message;
using connector::Interceptor;
using util::Result;
using util::Value;

Interceptor::Verdict RetryInterceptor::before(Message& message,
                                              Result<Value>* /*reply*/) {
  if (message.kind != component::MessageKind::kRequest) {
    return Verdict::kPass;  // one-way events are fire-and-forget
  }
  component::Control& control = message.control;
  if (control.retry_attempt > 0) {
    ++retries_seen_;
    if (obs_retries_ == nullptr) {
      obs_retries_ = &obs::Registry::global().counter("fault.retries");
    }
    obs_retries_->inc();
  }
  if (!control.retry_budget) {
    control.retry_budget = policy_.max_retries;
    control.backoff_base = policy_.backoff_base;
    control.backoff_cap = policy_.backoff_cap;
    if (policy_.failover) control.failover = true;
    if (policy_.timeout > 0) control.timeout = policy_.timeout;
  }
  return Verdict::kPass;
}

void RetryInterceptor::after(const Message& message,
                             Result<Value>& reply) {
  if (reply.ok()) return;
  const std::int32_t budget = message.control.retry_budget.value_or(0);
  if (budget > 0 && message.control.retry_attempt >= budget) {
    ++budget_exhausted_;
    if (obs_exhausted_ == nullptr) {
      obs_exhausted_ =
          &obs::Registry::global().counter("fault.retry_exhausted");
    }
    obs_exhausted_->inc();
  }
}

void register_fault_aspects(connector::ConnectorFactory& factory,
                            const RetryPolicy& defaults) {
  factory.add_aspect_provider(
      [defaults](const std::string& aspect)
          -> std::shared_ptr<connector::Interceptor> {
        if (aspect == "retry") {
          return std::make_shared<RetryInterceptor>(defaults);
        }
        if (aspect == "failover") {
          RetryPolicy policy = defaults;
          policy.failover = true;
          return std::make_shared<RetryInterceptor>(policy);
        }
        return nullptr;
      });
}

}  // namespace aars::fault
