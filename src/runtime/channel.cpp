#include "runtime/channel.h"

namespace aars::runtime {

Channel::Channel(ChannelId id, ConnectorId connector, ComponentId provider)
    : id_(id), connector_(connector), provider_(provider) {
  obs::Registry& reg = obs::Registry::global();
  obs_delivered_ = &reg.counter("channel.delivered");
  obs_dropped_ = &reg.counter("channel.dropped");
  obs_duplicated_ = &reg.counter("channel.duplicated");
  obs_in_flight_ = &reg.gauge("channel.in_flight");
  obs_max_delay_ = &reg.gauge("channel.max_delay_us");
  obs_held_depth_ = &reg.gauge("channel.held_depth");
}

util::Status Channel::hold(HeldMessage held) {
  if (held_.size() >= hold_limit_) {
    ++hold_overflows_;
    // Evict the youngest strictly-lower-priority entry so that control and
    // high-priority traffic can always be parked during quiescence.
    auto victim = held_.end();
    for (auto it = held_.begin(); it != held_.end(); ++it) {
      if (it->priority < held.priority &&
          (victim == held_.end() || it->priority <= victim->priority)) {
        victim = it;
      }
    }
    if (victim == held_.end()) {
      return util::Error{util::ErrorCode::kOverloaded,
                         "hold buffer full (limit " +
                             std::to_string(hold_limit_) + ")"};
    }
    HeldMessage shed = std::move(*victim);
    held_.erase(victim);
    ++shed_held_;
    record_drop();
    if (shed.reject) {
      shed.reject(std::move(shed.message),
                  util::Error{util::ErrorCode::kOverloaded,
                              "held message shed for higher-priority traffic"});
    }
  }
  held_.push_back(std::move(held));
  held_peak_ = std::max(held_peak_, held_.size());
  obs_held_depth_->set(static_cast<double>(held_.size()));
  return util::Status::success();
}

bool Channel::audit_seen(std::uint64_t sequence) {
  if (sequence <= watermark_) return true;
  // In-order traffic (the steady state) just bumps the watermark: no
  // hashtable node churns per message.  Equivalent to the general path,
  // which would insert `sequence` and immediately erase it while closing
  // the frontier.
  if (sequence == watermark_ + 1 && recent_.empty()) {
    watermark_ = sequence;
    max_seen_ = std::max(max_seen_, sequence);
    return false;
  }
  if (!recent_.insert(sequence).second) return true;
  max_seen_ = std::max(max_seen_, sequence);
  // Advance the contiguous delivered watermark, shedding entries as the
  // frontier closes up — in-order traffic keeps recent_ at one entry.
  while (recent_.erase(watermark_ + 1) != 0) ++watermark_;
  if (recent_.size() > audit_window_) {
    // A permanent gap (dropped message) is pinning the watermark. Force it
    // forward so the tracked span stays bounded; sequences at or below the
    // new watermark now count as seen.
    const std::uint64_t floor =
        std::max(watermark_, max_seen_ - audit_window_);
    for (auto it = recent_.begin(); it != recent_.end();) {
      if (*it <= floor) {
        it = recent_.erase(it);
      } else {
        ++it;
      }
    }
    watermark_ = floor;
    while (recent_.erase(watermark_ + 1) != 0) ++watermark_;
  }
  return false;
}

void Channel::record_delivery(std::uint64_t sequence) {
  if (audit_seen(sequence)) {
    ++duplicated_;
    obs_duplicated_->inc();
    return;
  }
  ++delivered_;
  obs_delivered_->inc();
}

std::uint64_t Channel::missing() const {
  const std::uint64_t accounted =
      delivered_ + dropped_ + duplicated_ + in_flight_ + held_.size();
  return sent() > accounted ? sent() - accounted : 0;
}

void Channel::retarget_held(ComponentId provider) {
  for (HeldMessage& held : held_) held.message.target = provider;
}

std::optional<HeldMessage> Channel::take_held() {
  if (held_.empty()) return std::nullopt;
  HeldMessage front = std::move(held_.front());
  held_.pop_front();
  obs_held_depth_->set(static_cast<double>(held_.size()));
  return front;
}

void Channel::on_arrive() {
  util::require(in_flight_ > 0, "channel in-flight underflow");
  --in_flight_;
  obs_in_flight_->set(static_cast<double>(in_flight_));
  if (in_flight_ == 0 && !drain_waiters_.empty()) {
    // A waiter may destroy this channel (the reconfiguration engine erases
    // it when removing the drained component), so detach the list first and
    // never touch members after invoking.
    std::deque<std::function<void()>> waiters;
    waiters.swap(drain_waiters_);
    for (auto& waiter : waiters) waiter();
  }
}

void Channel::notify_drained(std::function<void()> callback) {
  util::require(static_cast<bool>(callback), "drain callback required");
  if (in_flight_ == 0) {
    callback();
  } else {
    drain_waiters_.push_back(std::move(callback));
  }
}

}  // namespace aars::runtime
