#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace aars::sim {

// Event queue.
//
// A monotone radix queue (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
// Bucket 0 holds the entries at exactly `base_`; bucket b >= 1 those whose
// time first differs from `base_` in bit b-1, so every entry of bucket b
// precedes every entry of bucket b+1.  When bucket 0 runs dry, the lowest
// non-empty bucket b is refilled: the earliest time queued in it becomes
// the base, and its entries move in order into the lower buckets, which
// are empty.  An entry above bucket b keeps its bucket, since the old and
// new base agree on every bit from b-1 up.  Each bucket keeps the earliest
// time pushed into it, so a refill reads no slot: a cancelled entry moves
// along with the rest until bucket 0 drops it, and its time may become the
// base, which still lies at or before every queued entry.
//
// Order: an entry's bucket is a function of its time and the base, so
// entries of one time always share a bucket.  They enter it in schedule
// order and every move keeps their order, so same-instant events run in
// schedule order without a sequence number.  An entry moves down a few
// times at most, where a binary heap sifts about log2(n) levels per pop.
//
// Nothing may be scheduled before the base, so the base never passes
// now(): a refill happens only while a live event is queued, to run the
// next one, which lies at or after the new base, and run_until() never
// refills past its deadline.  next_event_time() never refills, since after
// a peek a cross-shard delivery may still be scheduled between now() and
// the peeked time.
//
// Generation wraparound.
//
// A slot's 32-bit generation increments on every release (fire or cancel).
// After 2^32 releases of the *same* slot it returns to a previous value, so
// a handle minted 2^32 reuses ago would spuriously match a live event and
// cancel a stranger.  Handles therefore also carry the slot's `epoch`,
// which increments each time the generation wraps: the handle-side match is
// effectively 64-bit, and 2^64 releases of one slot is out of reach (at
// 10^9 events/sec on one slot that is ~580 years of wall clock).
//
// Queue entries keep only the 32-bit generation (their 16-byte size is a
// deliberate cache/throughput budget — see the header).  A live entry's
// slot is not released before the entry leaves the queue, so its match is
// exact.  A cancelled entry stops matching at the cancel; its slot goes
// back to the pool, and the entry could match again only if that slot were
// released 2^32 more times before the queue drops the entry, which it does
// at the latest when the base reaches the entry's time.

EventLoop::EventLoop()
    : anchor_(std::make_shared<EventLoop*>(this)),
      obs_executed_(&obs::Registry::global().counter("sim.events_executed")),
      obs_cancelled_(&obs::Registry::global().counter("sim.events_cancelled")),
      obs_queue_depth_(&obs::Registry::global().gauge("sim.queue_depth")) {}

EventLoop::~EventLoop() { *anchor_ = nullptr; }

std::uint32_t EventLoop::acquire_slot(Callback fn) {
  std::uint32_t index;
  if (free_head_ != kNoSlot) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.in_use = true;
  slot.next_free = kNoSlot;
  return index;
}

void EventLoop::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;
  slot.in_use = false;
  if (++slot.generation == 0) ++slot.epoch;
  slot.next_free = free_head_;
  free_head_ = index;
}

bool EventLoop::cancel_slot(std::uint32_t index, std::uint32_t generation,
                            std::uint32_t epoch) {
  if (index >= slots_.size() || !handle_matches(index, generation, epoch)) {
    return false;
  }
  // The queue entry stays behind; its (slot, generation) no longer matches,
  // so the queue drops it unrun.  The cancellation counts here, once.
  release_slot(index);
  --pending_;
  obs_cancelled_->inc();
  report_queue_depth();
  return true;
}

void EventLoop::debug_add_generation(const EventHandle& handle,
                                     std::uint32_t delta) {
  util::require(handle.anchor_ && *handle.anchor_ == this,
                "handle does not belong to this loop");
  Slot& slot = slots_[handle.slot_];
  util::require(!slot.in_use, "slot must be free to fast-forward generations");
  const std::uint32_t before = slot.generation;
  slot.generation += delta;
  if (slot.generation < before) ++slot.epoch;  // 32-bit wrap occurred
}

EventHandle EventLoop::schedule_at(SimTime at, Callback fn) {
  util::require(static_cast<bool>(fn), "scheduled callback must be callable");
  util::require(at >= now_, "cannot schedule an event in the past");
  const std::uint32_t index = acquire_slot(std::move(fn));
  const std::uint32_t generation = slots_[index].generation;
  push(Entry{at, index, generation});
  ++pending_;
  report_queue_depth();
  return EventHandle{anchor_, index, generation, slots_[index].epoch};
}

EventHandle EventLoop::schedule_after(Duration delay, Callback fn) {
  util::require(delay >= 0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

void EventLoop::push(const Entry& entry) {
  const std::size_t b = bucket_of(entry.at);
  Bucket& bucket = buckets_[b];
  bucket.entries.push_back(entry);
  bucket.earliest = std::min(bucket.earliest, entry.at);
  if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
}

const EventLoop::Entry* EventLoop::next_due(SimTime limit) {
  for (;;) {
    std::vector<Entry>& due = buckets_[0].entries;
    for (; head_ < due.size(); ++head_) {
      const Entry& entry = due[head_];
      if (slot_matches(entry.slot, entry.generation)) return &entry;
    }
    due.clear();
    head_ = 0;
    // Cancelled entries alone never move the base.
    if (pending_ == 0) return nullptr;
    const std::size_t b =
        static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
    Bucket& from = buckets_[b];
    if (from.earliest > limit) return nullptr;
    // Refill: the lower buckets are empty, so moving the entries in order
    // keeps each time's entries in schedule order.  This is push() with
    // the occupancy bits gathered once per refill (faster at depth than a
    // store to occupied_ per entry).
    base_ = from.earliest;
    std::uint64_t filled = 0;
    for (const Entry& entry : from.entries) {
      const std::size_t to = bucket_of(entry.at);  // < b
      Bucket& bucket = buckets_[to];
      bucket.entries.push_back(entry);
      bucket.earliest = std::min(bucket.earliest, entry.at);
      filled |= std::uint64_t{1} << to;
    }
    occupied_ = (occupied_ & (occupied_ - 1)) | (filled >> 1);  // b off
    from.entries.clear();
    from.earliest = kNever;
  }
}

bool EventLoop::pop_and_run(SimTime limit) {
  const Entry* entry = next_due(limit);
  if (entry == nullptr) return false;
  const std::uint32_t index = entry->slot;
  now_ = entry->at;
  ++head_;
  --pending_;
  report_queue_depth();
  ++executed_;
  // Release the slot *before* running the callback: the handle now reads
  // inactive ("no longer scheduled"), and a cancel() issued from inside
  // the callback or any time after the event fired sees a generation
  // mismatch and is a no-op rather than corrupting the pending count.
  Callback fn = std::move(slots_[index].fn);
  release_slot(index);
  obs_executed_->inc();
  fn();
  return true;
}

std::size_t EventLoop::run(std::size_t limit) {
  std::size_t ran = 0;
  while (ran < limit && pop_and_run(kNever)) ++ran;
  return ran;
}

std::size_t EventLoop::run_until(SimTime deadline) {
  util::require(deadline >= now_, "deadline is in the past");
  std::size_t ran = 0;
  while (pop_and_run(deadline)) ++ran;
  now_ = deadline;
  return ran;
}

SimTime EventLoop::next_event_time(SimTime sentinel) {
  if (pending_ == 0) return sentinel;
  // A bucket's `earliest` may be a cancelled entry's, so read the slots.
  const auto earliest_live = [this](const std::vector<Entry>& entries,
                                    std::size_t from) {
    SimTime earliest = kNever;
    for (std::size_t i = from; i < entries.size(); ++i) {
      const Entry& entry = entries[i];
      if (entry.at < earliest && slot_matches(entry.slot, entry.generation)) {
        earliest = entry.at;
      }
    }
    return earliest;
  };
  SimTime next = earliest_live(buckets_[0].entries, head_);
  for (std::uint64_t rest = occupied_; next == kNever && rest != 0;
       rest &= rest - 1) {
    const auto b = static_cast<std::size_t>(std::countr_zero(rest)) + 1;
    next = earliest_live(buckets_[b].entries, 0);
  }
  return next == kNever ? sentinel : next;
}

bool EventLoop::step() { return pop_and_run(kNever); }

}  // namespace aars::sim
