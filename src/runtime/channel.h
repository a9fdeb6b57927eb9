// Communication channels with integrity accounting.
//
// The paper requires "preserving communication channels by avoiding message
// loss, duplication or excessive delays" (§1) during reconfiguration.  A
// Channel carries the traffic from one connector to one serving component;
// it assigns per-channel sequence numbers, audits deliveries for gaps and
// duplicates, counts in-flight messages, and supports the block/hold/replay
// cycle the quiescence protocol needs.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>

#include "component/message.h"
#include "obs/metrics.h"
#include "util/errors.h"
#include "util/ids.h"
#include "util/time.h"

namespace aars::runtime {

using component::Message;
using util::ChannelId;
using util::ComponentId;
using util::ConnectorId;
using util::Duration;
using util::SimTime;

/// A held message plus the completion hooks of its originating call. The
/// resume hook receives the (possibly re-targeted) message so replays after
/// a provider swap reach the replacement; the reject hook finishes the call
/// with an error when the hold buffer sheds the message under pressure.
struct HeldMessage {
  Message message;
  int priority = static_cast<int>(component::Priority::kNormal);
  std::function<void(Message)> resume;  // re-runs the delivery pipeline
  std::function<void(Message, util::Error)> reject;  // fails the call
};

class Channel {
 public:
  Channel(ChannelId id, ConnectorId connector, ComponentId provider);

  ChannelId id() const { return id_; }
  ConnectorId connector() const { return connector_; }
  ComponentId provider() const { return provider_; }
  /// Re-targets the channel after a provider swap; sequence numbering and
  /// audit state carry over so integrity accounting spans the swap.
  void set_provider(ComponentId provider) { provider_ = provider; }

  // --- sequencing & integrity ----------------------------------------------
  /// Default out-of-order span the duplicate audit tracks exactly.
  /// Deliveries more than this many sequence numbers behind the forced
  /// watermark are classified duplicates (the memory-bound trade-off; see
  /// seen below).  Tunable per application via Config::channel_audit_window.
  static constexpr std::size_t kAuditWindow = 1024;

  /// Rebounds the audit span (>= 1).  Shrinking takes effect as traffic
  /// flows; entries already tracked are shed on the next forced advance.
  void set_audit_window(std::size_t window) {
    audit_window_ = std::max<std::size_t>(window, 1);
  }
  std::size_t audit_window() const { return audit_window_; }

  std::uint64_t next_sequence() { return next_seq_++; }
  /// Records a delivery; flags duplicates.
  void record_delivery(std::uint64_t sequence);
  void record_drop(std::uint64_t count = 1) {
    dropped_ += count;
    obs_dropped_->inc(count);
  }
  std::uint64_t sent() const { return next_seq_ - 1; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  /// Messages sent but neither delivered nor dropped nor held.
  std::uint64_t missing() const;

  // --- blocking (quiescence protocol) ----------------------------------------
  void block() { blocked_ = true; }
  void unblock() { blocked_ = false; }
  bool blocked() const { return blocked_; }
  /// Buffers a message while the channel is blocked. The buffer is bounded
  /// (hold_limit): when full, the youngest strictly-lower-priority entry is
  /// shed (its reject hook fires with kOverloaded) to make room; if no such
  /// entry exists the incoming message itself is refused with kOverloaded.
  util::Status hold(HeldMessage held);
  std::size_t held_count() const { return held_.size(); }
  /// Removes and returns the oldest held message.
  std::optional<HeldMessage> take_held();
  /// Re-addresses every held message (provider swap during quiescence).
  void retarget_held(ComponentId provider);

  void set_hold_limit(std::size_t limit) { hold_limit_ = limit; }
  std::size_t hold_limit() const { return hold_limit_; }
  /// High-water mark of the hold buffer; never exceeds hold_limit().
  std::size_t held_peak() const { return held_peak_; }
  /// Times hold() ran out of room (whether it shed a held entry or refused
  /// the incoming message).
  std::uint64_t hold_overflows() const { return hold_overflows_; }
  /// Held entries evicted to make room for higher-priority messages.
  std::uint64_t shed_held() const { return shed_held_; }

  /// Sequences the audit currently tracks individually (above the
  /// delivered watermark). Bounded by kAuditWindow — exposed so tests can
  /// assert the audit memory stays bounded.
  std::size_t audit_entries() const { return recent_.size(); }
  /// Every sequence <= watermark counts as already delivered.
  std::uint64_t delivered_watermark() const { return watermark_; }

  // --- in-flight accounting ---------------------------------------------------
  void on_depart() {
    ++in_flight_;
    obs_in_flight_->set(static_cast<double>(in_flight_));
  }
  void on_arrive();
  std::size_t in_flight() const { return in_flight_; }
  /// Registers a callback fired when in_flight reaches zero (or immediately
  /// when already drained).
  void notify_drained(std::function<void()> callback);

  // --- delay accounting --------------------------------------------------------
  void record_delay(Duration d) {
    max_delay_ = std::max(max_delay_, d);
    obs_max_delay_->set(static_cast<double>(max_delay_));
  }
  Duration max_delay() const { return max_delay_; }

 private:
  /// Marks `sequence` as seen; returns true when it was seen before.
  bool audit_seen(std::uint64_t sequence);

  ChannelId id_;
  ConnectorId connector_;
  ComponentId provider_;
  bool blocked_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::size_t in_flight_ = 0;
  Duration max_delay_ = 0;
  std::deque<HeldMessage> held_;
  std::size_t hold_limit_ = 1024;
  std::size_t held_peak_ = 0;
  std::uint64_t hold_overflows_ = 0;
  std::uint64_t shed_held_ = 0;
  // Duplicate audit in bounded memory: every sequence <= watermark_ counts
  // as delivered; recent_ holds only the delivered sequences above it
  // (out-of-order frontier). When a permanent gap (a dropped message)
  // would let recent_ outgrow kAuditWindow, the watermark is forced
  // forward — the one approximation, which classifies a delivery arriving
  // more than kAuditWindow sequences late as a duplicate. The old design
  // (one hash-set entry per message, forever) sank long-running workloads.
  std::uint64_t watermark_ = 0;
  std::uint64_t max_seen_ = 0;
  std::size_t audit_window_ = kAuditWindow;
  std::unordered_set<std::uint64_t> recent_;
  std::deque<std::function<void()>> drain_waiters_;
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Counter* obs_delivered_;
  obs::Counter* obs_dropped_;
  obs::Counter* obs_duplicated_;
  obs::Gauge* obs_in_flight_;
  obs::Gauge* obs_max_delay_;
  obs::Gauge* obs_held_depth_;
};

}  // namespace aars::runtime
