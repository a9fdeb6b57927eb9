#include "telecom/session.h"

#include <algorithm>

namespace aars::telecom {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;

SessionManager::SessionManager(runtime::Application& app, Options options)
    : app_(app), options_(options) {
  util::require(options_.service.valid(), "service connector required");
  util::require(options_.fps > 0.0, "fps must be positive");
  util::require(options_.frame_quantum >= 0, "frame quantum must be >= 0");
  for (std::size_t q = 0; q < levels_.size(); ++q) {
    levels_[q].manager = this;
    levels_[q].quality = static_cast<int>(q);
  }
  if (options_.frame_quantum > 0) {
    // The ring spans two frame gaps plus slack: a rechain lands at most one
    // gap (+ one rounding bucket) ahead, and a phase-staggered first frame
    // reaches one further gap beyond that.
    const auto span = std::max<std::size_t>(
        static_cast<std::size_t>(frame_gap() / options_.frame_quantum), 1);
    wheel_.assign(2 * span + 3, kNil);
  }
}

Duration SessionManager::frame_gap() const {
  return std::max<Duration>(
      static_cast<Duration>(util::kSecond / options_.fps), 1);
}

std::uint32_t SessionManager::decode(SessionId id) const {
  const std::uint64_t raw = id.raw();
  const std::uint64_t low = raw & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return kNil;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  const Slot& s = slots_[slot];
  if (!s.live || s.gen != static_cast<std::uint32_t>(raw >> 32)) return kNil;
  return slot;
}

SessionId SessionManager::start_session(int quality, NodeId origin,
                                        SimTime until) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.origin = origin;
  s.until = until;
  s.quality = static_cast<std::int16_t>(
      QualityLadder::clamp(std::min(quality, global_quality_)));
  s.live = true;
  ++live_;
  const SessionId id = encode(slot);
  schedule_first_frame(slot);
  return id;
}

Status SessionManager::end_session(SessionId id) {
  const std::uint32_t slot = decode(id);
  if (slot == kNil) {
    return Error{ErrorCode::kNotFound, "no such session"};
  }
  retire(slot);
  return Status::success();
}

bool SessionManager::active(SessionId id) const { return decode(id) != kNil; }

Status SessionManager::set_quality(SessionId id, int level) {
  const std::uint32_t slot = decode(id);
  if (slot == kNil) {
    return Error{ErrorCode::kNotFound, "no such session"};
  }
  slots_[slot].quality =
      static_cast<std::int16_t>(QualityLadder::clamp(level));
  return Status::success();
}

Result<int> SessionManager::quality(SessionId id) const {
  const std::uint32_t slot = decode(id);
  if (slot == kNil) {
    return Error{ErrorCode::kNotFound, "no such session"};
  }
  return static_cast<int>(slots_[slot].quality);
}

void SessionManager::set_global_quality(int level) {
  global_quality_ = QualityLadder::clamp(level);
  for (Slot& s : slots_) {
    if (!s.live) continue;
    // Sessions above the new ceiling are clamped; sessions degraded below
    // it also recover up to it.
    s.quality = static_cast<std::int16_t>(global_quality_);
  }
}

double SessionManager::offered_work_per_second() const {
  double total = 0.0;
  for (const Slot& s : slots_) {
    if (!s.live) continue;
    total += options_.fps * QualityLadder::at(s.quality).work_units;
  }
  return total;
}

void SessionManager::on_frame(FrameListener listener) {
  util::require(static_cast<bool>(listener), "listener required");
  listeners_.push_back(std::move(listener));
}

void SessionManager::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.live) {
    s.live = false;
    ++s.gen;  // stale handles to this slot stop resolving immediately
    --live_;
  }
  // A wheel-chained slot keeps its link until the bucket fires; the fire
  // path moves it to the free list then.
  if (!s.chained) free_.push_back(slot);
}

void SessionManager::schedule_first_frame(std::uint32_t slot) {
  const SimTime at = app_.loop().now() + frame_gap();
  if (options_.frame_quantum == 0) {
    // Exact mode: the session carries its own pending event.
    if (at > slots_[slot].until) {
      retire(slot);
      return;
    }
    const SessionId id = encode(slot);
    app_.loop().schedule_at(at, [this, id] { fire_frame_exact(id); });
    return;
  }
  // Wheel mode: quantize up to the bucket boundary so a frame never fires
  // before its exact-mode time would.  Quantization alone synchronizes
  // every session admitted in the same quantum onto one instant, and each
  // bucket then fires a frame *storm* — thousands of simultaneous in-flight
  // invocations whose transient state dwarfs the steady-state saving.  So
  // the first frame is phase-staggered deterministically across the gap's
  // buckets; the recurrence preserves the phase (gap rounds to a whole
  // number of buckets), keeping per-bucket load near population/span.
  const Duration q = options_.frame_quantum;
  const std::uint64_t base = (static_cast<std::uint64_t>(at) + q - 1) / q;
  const auto span =
      static_cast<std::uint64_t>(std::max<Duration>(frame_gap() / q, 1));
  const std::uint64_t bucket =
      base + (slot * 2654435761ull) % span;  // Knuth multiplicative hash
  if (static_cast<SimTime>(bucket * q) > slots_[slot].until) {
    retire(slot);
    return;
  }
  chain_into_bucket(slot, bucket);
}

// --- exact mode --------------------------------------------------------------

void SessionManager::fire_frame_exact(SessionId id) {
  const std::uint32_t slot = decode(id);
  if (slot == kNil) return;
  fire_frame(slot);
  // Schedule the follow-up; retire once the next frame would overrun.
  const SimTime at = app_.loop().now() + frame_gap();
  if (at > slots_[slot].until) {
    retire(slot);
    return;
  }
  app_.loop().schedule_at(at, [this, id] { fire_frame_exact(id); });
}

// --- wheel mode --------------------------------------------------------------

void SessionManager::chain_into_bucket(std::uint32_t slot,
                                       std::uint64_t bucket) {
  const std::size_t idx = bucket % wheel_.size();
  Slot& s = slots_[slot];
  s.next = wheel_[idx];
  s.chained = true;
  if (wheel_[idx] == kNil) {
    const SimTime at =
        static_cast<SimTime>(bucket) * options_.frame_quantum;
    app_.loop().schedule_at(at, [this, bucket] { fire_bucket(bucket); });
  }
  wheel_[idx] = slot;
}

void SessionManager::fire_bucket(std::uint64_t bucket) {
  const std::size_t idx = bucket % wheel_.size();
  std::uint32_t slot = wheel_[idx];
  wheel_[idx] = kNil;
  const Duration q = options_.frame_quantum;
  while (slot != kNil) {
    Slot& s = slots_[slot];
    const std::uint32_t next = s.next;
    s.next = kNil;
    s.chained = false;
    if (!s.live) {
      // Retired while chained: the link is free now, recycle the slot.
      free_.push_back(slot);
    } else {
      fire_frame(slot);
      const SimTime at = app_.loop().now() + frame_gap();
      const std::uint64_t next_bucket =
          (static_cast<std::uint64_t>(at) + q - 1) / q;
      if (static_cast<SimTime>(next_bucket * q) > s.until) {
        retire(slot);
      } else {
        chain_into_bucket(slot, next_bucket);
      }
    }
    slot = next;
  }
}

// --- the frame itself --------------------------------------------------------

void SessionManager::fire_frame(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  ++frames_attempted_;
  const int quality = s.quality;
  const SessionId id = encode(slot);
  const QualityLevel& q = QualityLadder::at(quality);
  const Value args = Value::object(
      {{"session", static_cast<std::int64_t>(id.raw())},
       {"quality", static_cast<std::int64_t>(quality)}});
  const FrameLevel& level = levels_[static_cast<std::size_t>(quality)];
  app_.invoke_async(
      options_.service, "frame", args, s.origin,
      [level = &level, id](Result<Value> result, Duration latency) {
        level->manager->frame_settled(level->quality, id, result.ok(),
                                      latency);
      },
      component::Control{.work_scale = q.work_units});
}

void SessionManager::frame_settled(int quality, SessionId id, bool ok,
                                   Duration latency) {
  if (ok) {
    ++frames_ok_;
    delivered_utility_ += QualityLadder::at(quality).utility;
  } else {
    ++frames_failed_;
  }
  for (const FrameListener& listener : listeners_) {
    listener(id, latency, ok, quality);
  }
}

}  // namespace aars::telecom
