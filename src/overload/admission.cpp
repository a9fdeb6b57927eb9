#include "overload/admission.h"

#include <algorithm>

#include "util/errors.h"

namespace aars::overload {

namespace {

constexpr double kMicrosPerSecond = 1e6;

}  // namespace

AdmissionInterceptor::AdmissionInterceptor(AdmissionPolicy policy, Clock clock,
                                           DepthProbe depth_probe,
                                           std::string label)
    : policy_(policy),
      clock_(std::move(clock)),
      depth_probe_(std::move(depth_probe)),
      label_(std::move(label)) {
  tokens_ = effective_burst();
  if (clock_) last_refill_ = clock_();
  obs::Registry& reg = obs::Registry::global();
  const obs::Labels gate{{"gate", label_}};
  obs_admitted_ = &reg.counter("overload.admitted", gate);
  for (int p = 0; p <= static_cast<int>(Priority::kControl); ++p) {
    obs_shed_[p] = &reg.counter(
        "overload.shed",
        {{"gate", label_},
         {"priority", component::to_string(static_cast<Priority>(p))}});
  }
  obs_queue_depth_ = &reg.gauge("overload.queue_depth", gate);
  obs_state_ = &reg.gauge("overload.state", gate);
  obs_transitions_ = &reg.counter("overload.pressure_transitions", gate);
}

double AdmissionInterceptor::effective_burst() const {
  if (policy_.burst > 0.0) return policy_.burst;
  return std::max(1.0, policy_.rate_per_sec / 10.0);
}

void AdmissionInterceptor::refill(util::SimTime now) {
  if (now <= last_refill_) return;
  const double elapsed_s =
      static_cast<double>(now - last_refill_) / kMicrosPerSecond;
  tokens_ = std::min(effective_burst(),
                     tokens_ + elapsed_s * policy_.rate_per_sec);
  last_refill_ = now;
}

connector::Interceptor::Verdict AdmissionInterceptor::shed_request(
    component::Message& request, Priority priority, const char* reason,
    util::Result<util::Value>* reply_out) {
  ++shed_[static_cast<std::size_t>(priority)];
  obs_shed_[static_cast<std::size_t>(priority)]->inc();
  obs::Registry::global().trace(
      clock_ ? clock_() : 0, obs::TraceKind::kCustom, "overload." + label_,
      std::string("shed ") + component::to_string(priority) + " (" + reason +
          ") op=" + request.operation);
  if (reply_out != nullptr) {
    *reply_out = util::Error{util::ErrorCode::kOverloaded,
                             label_ + ": shed (" + reason + ")"};
  }
  return Verdict::kBlock;
}

connector::Interceptor::Verdict AdmissionInterceptor::before(
    component::Message& request, util::Result<util::Value>* reply_out) {
  const Priority priority = component::message_priority(request);
  // Control traffic (quiescence, reconfiguration) is admitted
  // unconditionally: the meta-level must be able to act under overload.
  if (priority == Priority::kControl) {
    ++admitted_;
    obs_admitted_->inc();
    return Verdict::kPass;
  }

  // Queue-depth gate with hysteresis.
  if (policy_.queue_high > 0 && depth_probe_) {
    const std::size_t depth = depth_probe_();
    obs_queue_depth_->set(static_cast<double>(depth));
    const std::size_t low =
        policy_.queue_low > 0 ? policy_.queue_low : policy_.queue_high / 2;
    if (!overloaded_ && depth >= policy_.queue_high) {
      overloaded_ = true;
      ++pressure_transitions_;
      obs_transitions_->inc();
      obs_state_->set(1.0);
    } else if (overloaded_ && depth <= low) {
      overloaded_ = false;
      ++pressure_transitions_;
      obs_transitions_->inc();
      obs_state_->set(0.0);
    }
    if (overloaded_ && priority < policy_.shed_below) {
      return shed_request(request, priority, "queue depth", reply_out);
    }
  }

  // Token bucket. kHigh bypasses it (the bucket polices bulk traffic);
  // kBestEffort additionally may not dip into the reserved fraction.
  if (policy_.rate_per_sec > 0.0 && priority < Priority::kHigh) {
    refill(clock_ ? clock_() : last_refill_);
    const double floor = priority == Priority::kBestEffort
                             ? policy_.reserve_fraction * effective_burst()
                             : 0.0;
    if (tokens_ - 1.0 < floor) {
      return shed_request(request, priority, "rate", reply_out);
    }
    tokens_ -= 1.0;
  }

  ++admitted_;
  obs_admitted_->inc();
  return Verdict::kPass;
}

void AdmissionInterceptor::after(const component::Message&,
                                 util::Result<util::Value>&) {}

std::uint64_t AdmissionInterceptor::shed_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t s : shed_) total += s;
  return total;
}

}  // namespace aars::overload
