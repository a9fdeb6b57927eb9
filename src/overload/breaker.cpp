#include "overload/breaker.h"

#include "util/errors.h"

namespace aars::overload {

CircuitBreakerInterceptor::CircuitBreakerInterceptor(BreakerPolicy policy,
                                                     Clock clock,
                                                     std::string label)
    : policy_(policy), clock_(std::move(clock)), label_(std::move(label)) {
  if (clock_) window_start_ = clock_();
  obs::Registry& reg = obs::Registry::global();
  const obs::Labels gate{{"breaker", label_}};
  obs_state_ = &reg.gauge("breaker.state", gate);
  // Register every transition series up front so exports show them at zero
  // instead of materialising series mid-run.
  obs_to_open_ =
      &reg.counter("breaker.transitions", {{"breaker", label_}, {"to", "open"}});
  obs_to_half_open_ = &reg.counter("breaker.transitions",
                                   {{"breaker", label_}, {"to", "half_open"}});
  obs_to_closed_ = &reg.counter("breaker.transitions",
                                {{"breaker", label_}, {"to", "closed"}});
  obs_short_circuit_ = &reg.counter("breaker.short_circuit", gate);
  obs_state_->set(0.0);
}

void CircuitBreakerInterceptor::transition(BreakerState to, util::SimTime now) {
  if (state_ == to) return;
  state_ = to;
  ++transitions_;
  switch (to) {
    case BreakerState::kOpen:
      opened_at_ = now;
      obs_to_open_->inc();
      obs_state_->set(1.0);
      break;
    case BreakerState::kHalfOpen:
      probes_left_ = policy_.half_open_probes;
      probe_successes_ = 0;
      obs_to_half_open_->inc();
      obs_state_->set(2.0);
      break;
    case BreakerState::kClosed:
      samples_ = 0;
      failures_ = 0;
      window_start_ = now;
      obs_to_closed_->inc();
      obs_state_->set(0.0);
      break;
  }
  obs::Registry::global().trace(now, obs::TraceKind::kCustom,
                                "breaker." + label_, to_string(to));
}

void CircuitBreakerInterceptor::trip(util::SimTime now) {
  transition(BreakerState::kOpen, now);
}

connector::Interceptor::Verdict CircuitBreakerInterceptor::reject(
    component::Message& request, const char* reason,
    util::Result<util::Value>* reply_out) {
  request.control.breaker_rejected = true;
  ++short_circuits_;
  obs_short_circuit_->inc();
  if (reply_out != nullptr) {
    *reply_out = util::Error{util::ErrorCode::kOverloaded,
                             label_ + ": " + reason};
  }
  return Verdict::kBlock;
}

void CircuitBreakerInterceptor::roll_window(util::SimTime now) {
  if (now - window_start_ >= policy_.window) {
    window_start_ = now;
    samples_ = 0;
    failures_ = 0;
  }
}

connector::Interceptor::Verdict CircuitBreakerInterceptor::before(
    component::Message& request, util::Result<util::Value>* reply_out) {
  const util::SimTime now = clock_ ? clock_() : 0;
  if (policy_.protect_control &&
      component::message_priority(request) == component::Priority::kControl) {
    request.control.breaker_exempt = true;
    return Verdict::kPass;
  }
  if (state_ == BreakerState::kOpen &&
      now - opened_at_ >= policy_.open_cooldown) {
    transition(BreakerState::kHalfOpen, now);
  }
  switch (state_) {
    case BreakerState::kOpen:
      return reject(request, "breaker open", reply_out);
    case BreakerState::kHalfOpen:
      if (probes_left_ <= 0) {
        return reject(request, "breaker half-open, probe quota spent",
                      reply_out);
      }
      --probes_left_;
      request.control.breaker_probe = true;
      return Verdict::kPass;
    case BreakerState::kClosed:
      roll_window(now);
      return Verdict::kPass;
  }
  return Verdict::kPass;
}

void CircuitBreakerInterceptor::after(const component::Message& request,
                                      util::Result<util::Value>& reply) {
  // Our own short-circuits and exempt control traffic are not samples.
  if (request.control.breaker_rejected || request.control.breaker_exempt) {
    return;
  }
  const util::SimTime now = clock_ ? clock_() : 0;
  const bool slow = policy_.latency_to_open > 0 && request.sent_at > 0 &&
                    now - request.sent_at > policy_.latency_to_open;
  const bool failure = !reply.ok() || slow;

  if (request.control.breaker_probe) {
    if (state_ != BreakerState::kHalfOpen) return;  // stale probe reply
    if (failure) {
      transition(BreakerState::kOpen, now);
    } else if (++probe_successes_ >= policy_.half_open_probes) {
      transition(BreakerState::kClosed, now);
    }
    return;
  }

  if (state_ != BreakerState::kClosed) return;
  roll_window(now);
  ++samples_;
  if (failure) ++failures_;
  if (samples_ >= policy_.min_samples &&
      static_cast<double>(failures_) >=
          policy_.failure_rate_to_open * static_cast<double>(samples_)) {
    transition(BreakerState::kOpen, now);
  }
}

}  // namespace aars::overload
