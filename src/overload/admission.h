// Admission control with priority load shedding.
//
// The paper's motivating scenario is rush-hour overload: "a telecommunication
// network may be dynamically adapted to cope with the changing requests of
// mobile users" (§1).  The first line of defence is refusing work at the
// door instead of queueing it: AdmissionInterceptor sits at connector
// ingress (earliest in the chain) and combines a token bucket with a
// queue-depth gate.  Traffic classes (component::Priority) are shed lowest
// first, and kControl — quiescence and reconfiguration traffic — is always
// admitted, so the meta-level can still act on a saturated system.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "component/message.h"
#include "connector/connector.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace aars::overload {

using component::Priority;

/// Knobs for AdmissionInterceptor. Zero disables the corresponding gate.
struct AdmissionPolicy {
  /// Sustained admission rate (requests/second); 0 disables the bucket.
  double rate_per_sec = 0.0;
  /// Bucket capacity in tokens; <= 0 defaults to one tenth of the rate.
  double burst = 0.0;
  /// Fraction of the bucket reserved for kNormal-and-above traffic:
  /// kBestEffort is only admitted while the bucket holds more than this
  /// reserve, so bursts of background traffic cannot drain it dry.
  double reserve_fraction = 0.2;
  /// Queue-depth gate: entering overload at >= queue_high, leaving at
  /// <= queue_low (hysteresis). 0 disables the gate.
  std::size_t queue_high = 0;
  /// <= 0 defaults to queue_high / 2.
  std::size_t queue_low = 0;
  /// While the depth gate reports overload, priorities strictly below this
  /// are shed. kControl can never be named here (it is always admitted).
  Priority shed_below = Priority::kHigh;
};

/// Token-bucket + queue-depth admission gate, installed as the earliest
/// interceptor on a connector. Shed requests fail with kOverloaded (not
/// kRejected) so callers can distinguish backpressure from policy denial;
/// kOverloaded is deliberately not retryable.
class AdmissionInterceptor : public connector::Interceptor {
 public:
  using Clock = std::function<util::SimTime()>;
  using DepthProbe = std::function<std::size_t()>;

  /// `clock` drives token refill (simulated time); `depth_probe` reports
  /// the backlog the queue gate watches (may be empty when queue_high = 0).
  AdmissionInterceptor(AdmissionPolicy policy, Clock clock,
                       DepthProbe depth_probe = {},
                       std::string label = "admission");

  std::string name() const override { return "admission"; }
  Verdict before(component::Message& request,
                 util::Result<util::Value>* reply_out) override;
  void after(const component::Message& request,
             util::Result<util::Value>& reply) override;

  const AdmissionPolicy& policy() const { return policy_; }

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed(Priority priority) const {
    return shed_[static_cast<std::size_t>(priority)];
  }
  std::uint64_t shed_total() const;
  /// True while the queue-depth gate is in its overloaded (shedding) band.
  bool overloaded() const { return overloaded_; }
  std::uint64_t pressure_transitions() const { return pressure_transitions_; }
  double tokens() const { return tokens_; }

 private:
  double effective_burst() const;
  void refill(util::SimTime now);
  Verdict shed_request(component::Message& request, Priority priority,
                       const char* reason,
                       util::Result<util::Value>* reply_out);

  AdmissionPolicy policy_;
  Clock clock_;
  DepthProbe depth_probe_;
  std::string label_;
  double tokens_;
  util::SimTime last_refill_ = 0;
  bool overloaded_ = false;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_[4] = {0, 0, 0, 0};
  std::uint64_t pressure_transitions_ = 0;
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Counter* obs_admitted_;
  obs::Counter* obs_shed_[4];
  obs::Gauge* obs_queue_depth_;
  obs::Gauge* obs_state_;
  obs::Counter* obs_transitions_;
};

}  // namespace aars::overload
