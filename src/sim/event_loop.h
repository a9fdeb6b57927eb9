// Deterministic discrete-event loop.
//
// The whole runtime is driven by one of these: message deliveries, component
// execution, RAML measurement ticks and reconfiguration steps are all events
// on the same clock, which makes every experiment reproducible.
//
// Storage is a slab: callbacks live in pooled slots recycled through a
// freelist, queue entries are 16-byte PODs referencing a slot by index, and
// handles carry (slot, generation, epoch) so stale references
// self-invalidate.  The queue is a monotone radix queue of FIFO buckets
// keyed by time (see "Event queue" in event_loop.cpp): entries are only
// appended in schedule order and moved stably, so same-instant events run
// in schedule order without a sequence number.  At steady state scheduling
// an event performs zero heap allocations (the slab and the buckets reach
// high-water size and stay there; callbacks up to
// InlineFunction::kInlineSize bytes of capture are stored inline).
//
// Threading: an EventLoop is single-threaded.  Under sharded execution
// (sim::ShardSet) a loop belongs to its shard, and a shard's window may run
// on any runner thread, sharing it with other shards.  For the window the
// set makes each loop exclusive (`set_exclusive`) and marks the runner as
// acting for the loop while it executes that shard (`ActingAs`);
// EventHandle operations from any other caller are rejected (counted,
// no-op) instead of racing on the slab, whether or not the two shards
// share a thread.  Loops that are not exclusive (the default, a shard set
// between windows, and the whole single-shard world) accept every caller.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "util/errors.h"
#include "util/inline_function.h"
#include "util/time.h"

namespace aars::sim {

using util::Duration;
using util::SimTime;

class EventLoop;

/// Cancellation token for a scheduled event.
///
/// Identifies the event by (slot index, generation, epoch): the loop bumps
/// the slot's generation the moment the event fires or is cancelled, so
/// `active()` is precisely "still scheduled" and a `cancel()` on an
/// already-fired handle finds a generation mismatch and is a no-op.  The
/// 32-bit generation wraps after 2^32 releases of one slot; the epoch
/// counts those wraps, widening the handle-side match to an effective
/// 64-bit identity (see "Generation wraparound" in event_loop.cpp).  The
/// handle holds no per-event heap state; it shares the loop's liveness
/// anchor so a handle that outlives its loop degrades to inert rather than
/// dangling.
class EventHandle {
 public:
  EventHandle() = default;
  /// False when fired, cancelled, foreign (see cancel) or loop-dead.
  bool active() const;
  /// Cancels the event if it is still scheduled.  Returns true when this
  /// call performed the cancellation.  When the loop is exclusive to
  /// another shard's window the request is rejected (false; counted in
  /// `foreign_cancels_rejected`) instead of racing — route the cancel to
  /// the owning shard instead.
  bool cancel();

 private:
  friend class EventLoop;
  EventHandle(std::shared_ptr<EventLoop*> anchor, std::uint32_t slot,
              std::uint32_t generation, std::uint32_t epoch)
      : anchor_(std::move(anchor)),
        slot_(slot),
        generation_(generation),
        epoch_(epoch) {}

  std::shared_ptr<EventLoop*> anchor_;  // *anchor_ == nullptr after loop death
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
  std::uint32_t epoch_ = 0;
};

/// Queue of timed callbacks. Events run in time order, and events at the
/// same instant in schedule order (FIFO), which keeps the simulation
/// deterministic.
class EventLoop {
 public:
  using Callback = util::InlineFunction;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Returns a handle that
  /// can cancel the event before it fires.
  EventHandle schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, Callback fn);

  /// Runs events until the queue empties or `limit` events ran.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = kNoLimit);
  /// Runs events with timestamp <= deadline; leaves now() == deadline.
  std::size_t run_until(SimTime deadline);
  /// Runs events for the next `span` of simulated time.
  std::size_t run_for(Duration span) { return run_until(now_ + span); }
  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return pending_; }
  std::size_t executed() const { return executed_; }

  /// Timestamp of the earliest live event, or `sentinel` when the queue is
  /// empty.  Leaves the queue as it is, so an event may still be scheduled
  /// at any time from now() on.  Coordinator-side helper (ShardSet
  /// barrier): call only while no runner is executing this loop's window.
  SimTime next_event_time(SimTime sentinel);

  // --- shard-ownership ---------------------------------------------------------
  /// Makes the calling thread act for `loop` until destroyed, then
  /// restores what it acted for before.  A ShardSet runner holds one per
  /// shard while it executes that shard's window.
  class ActingAs {
   public:
    explicit ActingAs(const EventLoop& loop) : previous_(acting_for_) {
      acting_for_ = &loop;
    }
    ~ActingAs() { acting_for_ = previous_; }
    ActingAs(const ActingAs&) = delete;
    ActingAs& operator=(const ActingAs&) = delete;

   private:
    const EventLoop* previous_;
  };
  /// While exclusive, EventHandle::cancel()/active() from callers not
  /// acting for this loop are rejected rather than racing on the slab.
  /// ShardSet makes each loop exclusive for a window; single-threaded use
  /// never does and is unaffected.
  void set_exclusive(bool exclusive) {
    exclusive_.store(exclusive, std::memory_order_relaxed);
  }
  /// True when the caller may touch the slab through a handle (loop not
  /// exclusive, or the calling thread acts for it).
  bool owned_by_caller() const {
    return !exclusive_.load(std::memory_order_relaxed) ||
           acting_for_ == this;
  }
  /// Foreign EventHandle operations rejected since construction.
  std::uint64_t foreign_cancels_rejected() const {
    return foreign_cancels_rejected_.load(std::memory_order_relaxed);
  }

  // --- test hooks --------------------------------------------------------------
  /// Simulates `delta` additional releases of the slot behind `handle`
  /// (generation bumps, with epoch tracking the 32-bit wrap), so tests can
  /// exercise generation wraparound without 2^32 real schedule/cancel
  /// cycles.  Precondition: the slot is currently free.
  void debug_add_generation(const EventHandle& handle, std::uint32_t delta);

  static constexpr std::size_t kNoLimit = ~std::size_t{0};

 private:
  friend class EventHandle;

  /// Pooled callback storage. `generation` increments every time the slot
  /// is released (fire or cancel), invalidating outstanding handles and any
  /// queue entry still referencing the old generation; `epoch` increments
  /// when the 32-bit generation wraps, so handles (which carry both) keep a
  /// 64-bit effective identity.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t epoch = 0;
    std::uint32_t next_free = kNoSlot;
    bool in_use = false;
  };
  /// Queue entries are plain data; the callback stays in the slab.  They
  /// need no sequence number, as the FIFO buckets keep schedule order.
  /// Entries carry only the 32-bit generation (the 16-byte budget): an
  /// entry's (slot, generation) is unambiguous as long as the entry leaves
  /// the queue within 2^32 releases of its slot — see the wraparound note
  /// in event_loop.cpp.
  struct Entry {
    SimTime at;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static_assert(sizeof(Entry) == 16, "queue entries must stay 16-byte PODs");
  /// Bucket 0 holds the entries at the base; bucket b >= 1 those whose
  /// time first differs from the base in bit b-1.
  static constexpr std::size_t kBuckets = 65;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// A FIFO bucket and the earliest time queued in it, cancelled entries
  /// included: kNever when empty, unused for bucket 0 (all at the base).
  struct Bucket {
    std::vector<Entry> entries;
    SimTime earliest = kNever;
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::uint32_t acquire_slot(Callback fn);
  /// Frees a slot back to the pool and bumps its generation (epoch on wrap).
  void release_slot(std::uint32_t index);
  /// Queue-entry match: generation only (entries cannot carry the epoch).
  bool slot_matches(std::uint32_t index, std::uint32_t generation) const {
    const Slot& s = slots_[index];
    return s.in_use && s.generation == generation;
  }
  /// Handle match: generation + epoch (64-bit effective identity).
  bool handle_matches(std::uint32_t index, std::uint32_t generation,
                      std::uint32_t epoch) const {
    const Slot& s = slots_[index];
    return s.in_use && s.generation == generation && s.epoch == epoch;
  }
  bool cancel_slot(std::uint32_t index, std::uint32_t generation,
                   std::uint32_t epoch);
  void note_foreign_cancel() {
    foreign_cancels_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t bucket_of(SimTime at) const {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(at ^ base_)));
  }
  void push(const Entry& entry);
  /// The next live entry, refilling bucket 0 when it runs dry, provided it
  /// is due by `limit`; null otherwise.
  const Entry* next_due(SimTime limit);
  bool pop_and_run(SimTime limit);
  void report_queue_depth() {
    obs_queue_depth_->set(static_cast<double>(pending()));
  }

  SimTime now_ = 0;
  std::size_t executed_ = 0;
  std::size_t pending_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// The radix queue.  `base_` is at or before every queued entry and
  /// never past now_, `head_` is the next unread entry of bucket 0, and bit
  /// b-1 of `occupied_` is set while bucket b >= 1 holds entries.
  SimTime base_ = 0;
  std::size_t head_ = 0;
  std::uint64_t occupied_ = 0;
  std::array<Bucket, kBuckets> buckets_;
  std::shared_ptr<EventLoop*> anchor_;
  /// The loop the calling thread acts for (see ActingAs); null by default.
  static inline thread_local const EventLoop* acting_for_ = nullptr;
  /// Set for the length of a shard window.  Relaxed atomics: the store
  /// happens before the runner starts the window (ShardSet's park
  /// handshake provides the synchronization).
  std::atomic<bool> exclusive_{false};
  std::atomic<std::uint64_t> foreign_cancels_rejected_{0};
  // Observability mirrors (no-ops while the global registry is disabled).
  obs::Counter* obs_executed_;
  obs::Counter* obs_cancelled_;
  obs::Gauge* obs_queue_depth_;
};

inline bool EventHandle::active() const {
  if (!anchor_ || *anchor_ == nullptr) return false;
  EventLoop* loop = *anchor_;
  if (!loop->owned_by_caller()) return false;
  return loop->handle_matches(slot_, generation_, epoch_);
}

inline bool EventHandle::cancel() {
  if (!anchor_ || *anchor_ == nullptr) return false;
  EventLoop* loop = *anchor_;
  if (!loop->owned_by_caller()) {
    loop->note_foreign_cancel();
    return false;
  }
  return loop->cancel_slot(slot_, generation_, epoch_);
}

}  // namespace aars::sim
