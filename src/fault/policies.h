// Connector fault-handling policies, expressed as interceptors.
//
// "Connectors are first-class" (§2): resilience is a property of the glue,
// not of components.  These interceptors reuse the run_before/run_after
// machinery — before() stamps the retry, backoff, failover and deadline
// fields of an outbound request's control envelope (component::Control),
// the Application relay honours them (exponential backoff re-relays,
// deadline races, provider avoidance on failover) and after() observes
// the final reply to account exhausted budgets.
//
// Stacking rules of the partial-chain unwinding: an earlier interceptor
// returning kBlock stops the chain before these ever stamp a request
// (blocked calls are never retried), and a kRejected reply is never
// considered retryable.
#pragma once

#include <cstdint>

#include "connector/connector.h"
#include "connector/factory.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace aars::fault {

/// Knobs for RetryInterceptor.
struct RetryPolicy {
  /// Retries after the first attempt (3 => up to 4 relays total).
  int max_retries = 3;
  util::Duration backoff_base = 1000;    // first backoff, microseconds
  util::Duration backoff_cap = 100000;   // backoff ceiling
  /// Route retries away from the provider that failed (needs replicas).
  bool failover = false;
  /// Whole-call deadline including retries; 0 disables the deadline.
  util::Duration timeout = 0;
};

/// Stamps the retry, backoff, failover and deadline fields of outbound
/// requests' control envelope and counts retry traffic on the reply path.
class RetryInterceptor : public connector::Interceptor {
 public:
  explicit RetryInterceptor(RetryPolicy policy) : policy_(policy) {}
  RetryInterceptor() : RetryInterceptor(RetryPolicy{}) {}

  std::string name() const override { return "retry"; }
  Verdict before(component::Message& message,
                 util::Result<util::Value>* reply) override;
  void after(const component::Message& message,
             util::Result<util::Value>& reply) override;

  const RetryPolicy& policy() const { return policy_; }
  /// Relays observed carrying a retry attempt (> 0).
  std::uint64_t retries_seen() const { return retries_seen_; }
  /// Replies that failed with the budget fully spent.
  std::uint64_t budget_exhausted() const { return budget_exhausted_; }

 private:
  RetryPolicy policy_;
  std::uint64_t retries_seen_ = 0;
  std::uint64_t budget_exhausted_ = 0;
  // "fault.retries" and "fault.retry_exhausted", resolved at first use so
  // that an interceptor which never retries creates no series.
  obs::Counter* obs_retries_ = nullptr;
  obs::Counter* obs_exhausted_ = nullptr;
};

/// Registers the "retry", "failover" and "timeout(<us>)"-style aspects with
/// a connector factory so ADL-declared connectors can opt in by name.
void register_fault_aspects(connector::ConnectorFactory& factory,
                            const RetryPolicy& defaults = {});

}  // namespace aars::fault
