// Media sessions.
//
// A session models one connected user: a stream of frame requests at a
// fixed rate towards a MediaService connector.  The session's quality level
// is the adaptation actuator — controllers (E6) and admission policies
// (E10) turn it up and down while QoS monitors watch latency and failures.
//
// Storage is a slot/generation slab sized for million-user campaigns
// (E19): one packed 32-byte slot per live session, recycled through a free
// list, with the generation folded into the SessionId so a stale handle to
// a recycled slot is detected instead of aliasing the new occupant.  Frame
// scheduling has two modes (Options::frame_quantum): exact per-session
// events (the legacy behaviour every control/admission experiment pins), or
// a coarse timing wheel that batches every session due in a quantum behind
// one event-loop entry — at scale, pending frame events would otherwise
// dominate the per-user footprint.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "runtime/application.h"
#include "telecom/quality.h"

namespace aars::telecom {

using util::Duration;
using util::NodeId;
using util::SessionId;
using util::SimTime;

class SessionManager {
 public:
  struct Options {
    util::ConnectorId service;  // connector to the MediaService
    double fps = 10.0;          // frame requests per second per session
    /// 0 (default): every session schedules its next frame as its own
    /// event-loop entry at its exact per-session phase.  Positive: frames
    /// are batched into a timing wheel of this bucket width — one pending
    /// event per non-empty bucket instead of one per session, with frame
    /// times quantized up to the bucket boundary.  Pick a quantum no
    /// larger than the frame gap (1/fps).
    Duration frame_quantum = 0;
  };

  SessionManager(runtime::Application& app, Options options);
  // Scheduled frames and the per-level records point back at the manager.
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Starts a session streaming until `until` (absolute sim time).
  SessionId start_session(int quality, NodeId origin, SimTime until);
  util::Status end_session(SessionId session);
  bool active(SessionId session) const;
  std::size_t active_count() const { return live_; }

  /// Per-session quality actuation.
  util::Status set_quality(SessionId session, int level);
  util::Result<int> quality(SessionId session) const;
  /// Global quality actuation (the controller's knob): clamps every
  /// session (and the default for new ones) to `level`.
  void set_global_quality(int level);
  int global_quality() const { return global_quality_; }

  /// Aggregate demand in work units per second at current qualities.
  double offered_work_per_second() const;
  /// Frame rate shared by all sessions.
  double fps() const { return options_.fps; }

  /// Slots currently allocated (live sessions plus free-list capacity);
  /// exposed so capacity tests can assert the slab recycles instead of
  /// growing without bound.
  std::size_t slot_count() const { return slots_.size(); }

  // --- statistics -----------------------------------------------------------
  std::uint64_t frames_attempted() const { return frames_attempted_; }
  std::uint64_t frames_ok() const { return frames_ok_; }
  std::uint64_t frames_failed() const { return frames_failed_; }
  /// Sum of utility over delivered frames (the "care about rendering"
  /// metric).
  double delivered_utility() const { return delivered_utility_; }

  using FrameListener =
      std::function<void(SessionId, Duration latency, bool ok, int quality)>;
  void on_frame(FrameListener listener);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One session, packed.  `gen` brands the slot's current occupant: the
  /// SessionId carries (gen << 32) | (slot + 1), so handles to retired
  /// occupants stop resolving the moment the slot is recycled.  `next`
  /// doubles as the free-list link and the wheel-bucket chain.
  struct Slot {
    SimTime until = 0;
    NodeId origin;
    std::uint32_t gen = 1;
    std::uint32_t next = kNil;
    std::int16_t quality = 0;
    bool live = false;
    bool chained = false;  // linked into a wheel bucket (wheel mode only)
  };

  SessionId encode(std::uint32_t slot) const {
    return SessionId{(static_cast<std::uint64_t>(slots_[slot].gen) << 32) |
                     (slot + 1)};
  }
  /// Decodes a handle to a live slot index, or kNil for stale/forged ids.
  std::uint32_t decode(SessionId id) const;

  Duration frame_gap() const;
  void schedule_first_frame(std::uint32_t slot);
  /// Retires a slot; wheel-chained slots stay out of the free list until
  /// their bucket fires (the chain link lives inside the slot).
  void retire(std::uint32_t slot);

  // Exact mode: one event per session.
  void schedule_next_frame_exact(SessionId id);
  void fire_frame_exact(SessionId id);

  // Wheel mode: one event per non-empty bucket.
  void chain_into_bucket(std::uint32_t slot, std::uint64_t bucket);
  void fire_bucket(std::uint64_t bucket);
  void fire_frame(std::uint32_t slot);

  /// One record per quality level.  A frame's reply callback captures a
  /// pointer to its level's record and the SessionId, 16 bytes, which fits
  /// std::function's local buffer, so a frame allocates no callback.
  struct FrameLevel {
    SessionManager* manager = nullptr;
    int quality = 0;
  };
  void frame_settled(int quality, SessionId id, bool ok, Duration latency);

  runtime::Application& app_;
  Options options_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  /// Wheel ring: head slot index per bucket, indexed by absolute bucket
  /// number modulo the ring size.  The ring spans two frame gaps plus
  /// slack (rechains reach one gap ahead, phase-staggered first frames one
  /// gap further), and a bucket is re-armed only after it fired, so an
  /// absolute bucket never collides with a pending one.
  std::vector<std::uint32_t> wheel_;
  int global_quality_ = QualityLadder::kMax;
  std::array<FrameLevel, QualityLadder::kMax + 1> levels_;
  std::uint64_t frames_attempted_ = 0;
  std::uint64_t frames_ok_ = 0;
  std::uint64_t frames_failed_ = 0;
  double delivered_utility_ = 0.0;
  std::vector<FrameListener> listeners_;
};

}  // namespace aars::telecom
