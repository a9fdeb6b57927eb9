// Multimedia service components.
//
// The video pipeline the paper's composition-path example names —
// "extraction, coding and transferring infrastructure for video service"
// (§2) — plus the MediaServer used by the session/rush-hour experiments.
// All components register with a ComponentRegistry under their type names
// so they are deployable from the ADL.
#pragma once

#include <cstdint>
#include <vector>

#include "component/component.h"
#include "component/registry.h"

namespace aars::telecom {

/// The shared pipeline-stage interface: MediaStage v1 { process(data) }.
component::InterfaceDescription media_stage_interface();
/// The media service interface: MediaService v1 { frame(session, quality) }.
component::InterfaceDescription media_service_interface();

/// Stage 1: extracts raw frames from a source (cheap).
class FrameExtractor final : public component::Component {
 public:
  explicit FrameExtractor(const std::string& instance_name);
};

/// Stage 2: encodes frames. Attribute "codec" selects the algorithm and
/// its cost ("fast" vs "quality" — interchangeable implementations).
class VideoEncoder final : public component::Component {
 public:
  explicit VideoEncoder(const std::string& instance_name);

 protected:
  util::Status on_initialize(const util::Value& attributes) override;
  void save_state(util::Value& state) const override;
  util::Status load_state(const util::Value& state) override;

 private:
  std::string codec_ = "fast";
  std::int64_t frames_encoded_ = 0;
};

/// Stage 3: transfers encoded frames.
class Transmitter final : public component::Component {
 public:
  explicit Transmitter(const std::string& instance_name);

 private:
  std::int64_t bytes_sent_ = 0;

 protected:
  void save_state(util::Value& state) const override;
  util::Status load_state(const util::Value& state) override;
};

/// The stateful media server: serves "frame" requests whose work scales
/// with the session's quality level (SessionManager sets each frame's
/// control.work_scale).  Keeps a per-session frame counter so strong
/// reconfiguration is observable.
///
/// The counter table is bounded: a direct-mapped array of `session_slots`
/// entries (attribute, power of two) keyed by the raw session id.  A
/// colliding session evicts the slot's previous occupant, whose count
/// restarts — the same memory-bound trade the channel audit makes.  The
/// old string-keyed map grew one heap node per session ever seen and sank
/// million-user campaigns (E19).
class MediaServer final : public component::Component {
 public:
  explicit MediaServer(const std::string& instance_name);

  std::int64_t frames_served() const { return frames_served_; }
  /// Bound of the per-session counter table (attribute "session_slots").
  std::size_t session_slots() const { return session_slots_; }
  /// Sessions whose counter was evicted by a direct-map collision.
  std::uint64_t session_evictions() const { return session_evictions_; }

 protected:
  util::Status on_initialize(const util::Value& attributes) override;
  void save_state(util::Value& state) const override;
  util::Status load_state(const util::Value& state) override;

 private:
  struct SessionSlot {
    std::int64_t key = 0;
    std::int64_t count = 0;  // 0 = slot empty
  };
  /// Returns the slot for `session`, evicting a collider (table allocated
  /// on first use).
  SessionSlot& slot_for(std::int64_t session);

  std::int64_t frames_served_ = 0;
  std::size_t session_slots_ = 4096;
  std::uint64_t session_evictions_ = 0;
  std::vector<SessionSlot> per_session_;  // direct-mapped by session id
};

/// Registers all telecom component types ("FrameExtractor", "VideoEncoder",
/// "Transmitter", "MediaServer") in a registry.
void register_media_components(component::ComponentRegistry& registry);

}  // namespace aars::telecom
