// Circuit breakers for connector bindings.
//
// Retries (fault::RetryInterceptor) repair transient failures but amplify
// sustained ones: every retry against a saturated provider adds load.  The
// breaker composes with retry by sitting *earlier* in the chain (lower
// attach priority): while open it answers kOverloaded before the retry
// interceptor ever stamps a request, so a tripped binding generates zero
// provider traffic and zero retry attempts.  The breaker marks each request
// it rejects, probes with or exempts (component::Control's breaker_*
// flags), so its after() classifies replies without guessing:
// short-circuited requests are not samples, probe replies drive the
// half-open transition, exempt (control) traffic is untracked.  Classic
// three-state machine:
//
//   closed --(failure rate / latency over a tumbling window)--> open
//   open --(cooldown elapsed)--> half-open (admits a fixed probe quota)
//   half-open --(all probes succeed)--> closed;  --(any probe fails)--> open
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "component/message.h"
#include "connector/connector.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace aars::overload {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

constexpr const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

/// Knobs for CircuitBreakerInterceptor.
struct BreakerPolicy {
  /// Replies observed in the current window before the failure rate is
  /// trusted (avoids tripping on one unlucky call).
  std::size_t min_samples = 10;
  /// Open when window failures / samples reaches this fraction.
  double failure_rate_to_open = 0.5;
  /// When > 0, a reply slower than this counts as a failure even if it
  /// succeeded (latency-threshold trigger). Microseconds.
  util::Duration latency_to_open = 0;
  /// Tumbling statistics window.
  util::Duration window = util::milliseconds(100);
  /// How long an open breaker rejects before probing again.
  util::Duration open_cooldown = util::milliseconds(500);
  /// Probes admitted in half-open; all must succeed to close.
  int half_open_probes = 3;
  /// Control traffic passes an open breaker (the meta-level may need the
  /// binding to execute a repair).
  bool protect_control = true;
};

/// Per-binding circuit breaker, attached earlier than retry on the
/// connector chain. While open, requests fail with kOverloaded without
/// touching the provider (and without being retried — kOverloaded is not a
/// retryable code).
class CircuitBreakerInterceptor : public connector::Interceptor {
 public:
  using Clock = std::function<util::SimTime()>;

  CircuitBreakerInterceptor(BreakerPolicy policy, Clock clock,
                            std::string label = "breaker");

  std::string name() const override { return "breaker"; }
  Verdict before(component::Message& request,
                 util::Result<util::Value>* reply_out) override;
  void after(const component::Message& request,
             util::Result<util::Value>& reply) override;

  const BreakerPolicy& policy() const { return policy_; }
  BreakerState state() const { return state_; }
  std::uint64_t transitions() const { return transitions_; }
  /// Requests rejected without reaching the provider (open / probe quota).
  std::uint64_t short_circuits() const { return short_circuits_; }
  std::size_t window_samples() const { return samples_; }
  std::size_t window_failures() const { return failures_; }

  /// Force-opens the breaker (RAML intercession: isolate a binding).
  void trip(util::SimTime now);

 private:
  void transition(BreakerState to, util::SimTime now);
  Verdict reject(component::Message& request, const char* reason,
                 util::Result<util::Value>* reply_out);
  void roll_window(util::SimTime now);

  BreakerPolicy policy_;
  Clock clock_;
  std::string label_;
  BreakerState state_ = BreakerState::kClosed;
  util::SimTime opened_at_ = 0;
  util::SimTime window_start_ = 0;
  std::size_t samples_ = 0;
  std::size_t failures_ = 0;
  int probes_left_ = 0;
  int probe_successes_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t short_circuits_ = 0;
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Gauge* obs_state_;
  obs::Counter* obs_to_open_;
  obs::Counter* obs_to_half_open_;
  obs::Counter* obs_to_closed_;
  obs::Counter* obs_short_circuit_;
};

}  // namespace aars::overload
