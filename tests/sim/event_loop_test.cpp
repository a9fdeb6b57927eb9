#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace aars::sim {
namespace {

TEST(EventLoopTest, StartsAtTimeZeroEmpty) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ScheduleAfterUsesRelativeDelay) {
  EventLoop loop;
  SimTime fired_at = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoopTest, PastSchedulingThrows) {
  EventLoop loop;
  loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(5, [] {}), util::InvariantViolation);
  EXPECT_THROW(loop.schedule_after(-1, [] {}), util::InvariantViolation);
}

TEST(EventLoopTest, NullCallbackThrows) {
  EventLoop loop;
  EXPECT_THROW(loop.schedule_at(1, EventLoop::Callback{}),
               util::InvariantViolation);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  const std::size_t ran = loop.run_until(20);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, RunUntilAdvancesTimeEvenWhenIdle) {
  EventLoop loop;
  loop.run_until(500);
  EXPECT_EQ(loop.now(), 500);
}

TEST(EventLoopTest, RunForIsRelative) {
  EventLoop loop;
  loop.run_until(100);
  int fired = 0;
  loop.schedule_after(10, [&] { ++fired; });
  loop.run_for(50);
  EXPECT_EQ(loop.now(), 150);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  EventHandle handle = loop.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTest, CancelUpdatesPendingCount) {
  EventLoop loop;
  EventHandle a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  a.cancel();
  EXPECT_EQ(loop.pending(), 1u);
  a.cancel();  // double-cancel is a no-op
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, StepExecutesSingleEvent) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] { ++fired; });
  loop.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.step());
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, RunWithLimit) {
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 10; ++i) loop.schedule_at(i + 1, [&] { ++fired; });
  EXPECT_EQ(loop.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(10, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoopTest, ExecutedCounterCounts) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_at(i, [] {});
  loop.run();
  EXPECT_EQ(loop.executed(), 7u);
}

TEST(EventLoopTest, CancelledHandleAtHeadSkippedByRunUntil) {
  EventLoop loop;
  int fired = 0;
  EventHandle a = loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  a.cancel();
  loop.run_until(30);
  EXPECT_EQ(fired, 1);
}

// Regression: pop_and_run left the shared cancel flag untouched, so a
// handle stayed active() forever after its event ran.
TEST(EventLoopTest, HandleInactiveAfterExecution) {
  EventLoop loop;
  EventHandle handle = loop.schedule_at(10, [] {});
  EXPECT_TRUE(handle.active());
  loop.run();
  EXPECT_FALSE(handle.active());
}

// Regression: cancelling after the event fired decremented the
// cancelled-in-queue count for an entry no longer in the queue, which made
// pending() underflow (wrap to a huge value).
TEST(EventLoopTest, CancelAfterExecutionIsNoOp) {
  EventLoop loop;
  EventHandle handle = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  loop.run(1);  // runs only the first event
  EXPECT_EQ(loop.pending(), 1u);
  handle.cancel();  // fired already -> must not touch accounting
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
}

// Regression companion: cancel from inside the callback itself (the handle
// refers to the very event that is executing).
TEST(EventLoopTest, SelfCancelInsideCallbackIsNoOp) {
  EventLoop loop;
  EventHandle handle;
  int fired = 0;
  handle = loop.schedule_at(10, [&] {
    ++fired;
    handle.cancel();
  });
  loop.schedule_at(20, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
}

// The pool recycles a fired event's slot; a stale handle to the previous
// occupant sees a generation mismatch, so it reads inactive and its
// cancel() must not touch the slot's new occupant.
TEST(EventLoopTest, StaleHandleDoesNotCancelSlotReuser) {
  EventLoop loop;
  int first = 0;
  int second = 0;
  EventHandle stale = loop.schedule_at(1, [&] { ++first; });
  loop.run();  // fires; the slot returns to the freelist
  EXPECT_FALSE(stale.active());
  EventHandle fresh = loop.schedule_at(2, [&] { ++second; });
  stale.cancel();  // (slot, old generation): must be a no-op
  EXPECT_TRUE(fresh.active());
  loop.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

// Cancelling also bumps the generation, so a handle kept across
// cancel-then-reuse cannot resurrect and cancel the reusing event.
TEST(EventLoopTest, HandleReuseAfterGenerationBumpViaCancel) {
  EventLoop loop;
  int fired = 0;
  EventHandle stale = loop.schedule_at(5, [&] { ++fired; });
  stale.cancel();
  EXPECT_FALSE(stale.active());
  EventHandle fresh = loop.schedule_at(5, [&] { ++fired; });
  stale.cancel();  // second stale cancel: still a no-op
  EXPECT_TRUE(fresh.active());
  loop.run();
  EXPECT_EQ(fired, 1);
}

// Same-instant FIFO must hold even when the submissions land in recycled
// slots (freelist order is arbitrary; the order of the FIFO buckets decides).
TEST(EventLoopTest, SameInstantFifoSurvivesSlotChurn) {
  EventLoop loop;
  // Churn: fire and cancel a burst so later schedules reuse mixed slots.
  std::vector<EventHandle> burst;
  for (int i = 0; i < 32; ++i) {
    burst.push_back(loop.schedule_at(1, [] {}));
  }
  for (int i = 0; i < 32; i += 2) burst[i].cancel();
  loop.run();
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    loop.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  loop.run();
  std::vector<int> expected(32);
  for (int i = 0; i < 32; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

// Deterministic order under heavy interleaving of schedule/cancel/fire:
// two identical runs must execute callbacks in the same order.
TEST(EventLoopTest, ChurnedScheduleIsReproducible) {
  const auto run_once = [] {
    EventLoop loop;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    int id = 0;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 10; ++i) {
        const int tag = id++;
        handles.push_back(loop.schedule_after(
            1 + (tag % 3), [&order, tag] { order.push_back(tag); }));
      }
      handles[handles.size() - 3].cancel();
      loop.run_for(2);
    }
    loop.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// pending()/empty() stay consistent across a mix of executed, cancelled and
// post-fire-cancelled events.
TEST(EventLoopTest, PendingNeverUnderflowsUnderMixedCancellation) {
  EventLoop loop;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(loop.schedule_at(i + 1, [] {}));
  }
  handles[2].cancel();
  handles[5].cancel();
  loop.run(4);  // executes events 1,2,4,5 (3 and 6 were cancelled)
  for (EventHandle& h : handles) h.cancel();  // mostly post-fire no-ops
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
}

// Regression: the queue-depth gauge used to export the raw queue size,
// tombstones included — cancelling events made the reported depth *rise*
// above the live event count. It must mirror pending().
TEST(EventLoopTest, QueueDepthGaugeExcludesCancelledTombstones) {
  obs::Registry& registry = obs::Registry::global();
  obs::Gauge& depth = registry.gauge("sim.queue_depth");
  registry.set_enabled(true);
  {
    EventLoop loop;
    EventHandle a = loop.schedule_at(10, [] {});
    loop.schedule_at(20, [] {});
    loop.schedule_at(30, [] {});
    EXPECT_EQ(depth.value(), 3.0);
    a.cancel();  // tombstone stays queued; the gauge must not count it
    EXPECT_EQ(depth.value(), 2.0);
    loop.run(1);
    EXPECT_EQ(depth.value(), 1.0);
    loop.run();
    EXPECT_EQ(depth.value(), 0.0);
  }
  registry.set_enabled(false);
}

// `sim.events_cancelled` counts each cancel() that took effect, when it is
// called: no count waits for the queue to reach the cancelled entry.
TEST(EventLoopTest, CancelledCounterCountsEachSuccessfulCancel) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& cancelled = registry.counter("sim.events_cancelled");
  registry.set_enabled(true);
  {
    const std::uint64_t before = cancelled.value();
    EventLoop loop;
    EventHandle near = loop.schedule_at(10, [] {});
    EventHandle far = loop.schedule_at(util::seconds(10), [] {});
    EventHandle fired = loop.schedule_at(5, [] {});
    loop.run(1);
    EXPECT_TRUE(near.cancel());
    EXPECT_FALSE(near.cancel());   // already cancelled
    EXPECT_FALSE(fired.cancel());  // already ran
    EXPECT_TRUE(far.cancel());
    EXPECT_EQ(cancelled.value() - before, 2u);
    loop.run();
    EXPECT_EQ(cancelled.value() - before, 2u);
  }
  registry.set_enabled(false);
}

// Generation wraparound: after 2^32 releases a slot's 32-bit generation
// returns to an old value; the epoch widens the handle identity so a stale
// handle from the previous era cannot cancel (or report active for) the
// event currently occupying the slot.
TEST(EventLoopTest, StaleHandleInertAcrossGenerationWrap) {
  EventLoop loop;
  EventHandle stale = loop.schedule_at(10, [] {});
  ASSERT_TRUE(stale.cancel());  // frees the slot at generation 1
  loop.run();                   // flush the tombstone out of the queue
  // Simulate one full 32-bit cycle of releases: generation wraps back to
  // the exact value `stale` carries, epoch moves to 1.
  loop.debug_add_generation(stale, ~std::uint32_t{0});
  int fired = 0;
  EventHandle fresh = loop.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(stale.active());   // same slot+generation, older epoch
  EXPECT_FALSE(stale.cancel());   // must not cancel the new occupant
  EXPECT_TRUE(fresh.active());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(fresh.active());
}

TEST(EventLoopTest, WrappedSlotStaysReusable) {
  EventLoop loop;
  EventHandle h = loop.schedule_at(5, [] {});
  ASSERT_TRUE(h.cancel());
  loop.run();  // flush the tombstone out of the queue
  loop.debug_add_generation(h, ~std::uint32_t{0});
  // Several fresh schedule/cancel cycles in the new epoch behave normally.
  for (int i = 0; i < 3; ++i) {
    EventHandle fresh = loop.schedule_at(10 + i, [] {});
    EXPECT_TRUE(fresh.active());
    EXPECT_TRUE(fresh.cancel());
    EXPECT_FALSE(fresh.active());
  }
  loop.run();
  EXPECT_TRUE(loop.empty());
}

// Differential check of the queue's order: a loop driven by random
// schedules, cancels, runs and peeks against a reference ordered by
// (time, schedule number).  The reference advances in lockstep from inside
// each callback, so the first event out of order fails where it runs.
class ReferenceOrder {
 public:
  explicit ReferenceOrder(std::uint64_t seed) : rng_(seed) {}

  void run_operations(int count) {
    for (int i = 0; i < count && !::testing::Test::HasFailure(); ++i) {
      operate();
      check_counts();
    }
    ran_in_op_ = 0;
    EXPECT_EQ(loop_.run(), ran_in_op_);
    check_counts();
    EXPECT_TRUE(loop_.empty());
  }

 private:
  enum class State { kPending, kFired, kCancelled };
  // (time, schedule number), the order the loop must run events in.
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Event {
    Key key;
    bool spawns = false;
    State state = State::kPending;
    EventHandle handle;
  };

  std::uint64_t draw(std::uint64_t bound) { return rng_() % bound; }
  // 0 to 2^24 µs, spread over every power of two: an entry lands in every
  // radix bucket, and the longest sit about as far ahead as the engine's
  // 10 s quiescence timeout.
  Duration delay() {
    const std::uint64_t bits = draw(25);
    return static_cast<Duration>(rng_() & ((std::uint64_t{1} << bits) - 1));
  }

  void schedule(SimTime at, bool spawns) {
    const std::size_t id = events_.size();
    events_.push_back(
        Event{Key{at, next_number_++}, spawns, State::kPending, {}});
    const auto fire = [this, id] { fired(id); };
    events_[id].handle = (at == now_ && draw(2) == 0)
                             ? loop_.schedule_after(0, fire)
                             : loop_.schedule_at(at, fire);
    expected_.emplace(events_[id].key, id);
  }

  void fired(std::size_t id) {
    ASSERT_FALSE(expected_.empty()) << "event " << id << " ran unexpectedly";
    const auto head = expected_.begin();
    ASSERT_EQ(head->second, id) << "ran out of (time, schedule) order";
    ASSERT_EQ(loop_.now(), head->first.first);
    expected_.erase(head);
    events_[id].state = State::kFired;
    now_ = loop_.now();
    ++executed_;
    ++ran_in_op_;
    // A callback that schedules at now(): the child runs at this instant,
    // after every event already queued for it.
    if (events_[id].spawns) schedule(now_, false);
  }

  void operate() {
    ran_in_op_ = 0;
    const std::uint64_t kind = draw(20);
    if (kind < 9) {
      schedule(now_ + delay(), draw(4) == 0);
    } else if (kind < 12) {
      // Live, fired, cancelled and stale handles alike: a fired event's
      // slot is recycled, so an old handle names its new occupant's slot.
      if (events_.empty()) return;
      Event& event = events_[draw(events_.size())];
      const bool live = event.state == State::kPending;
      EXPECT_EQ(event.handle.active(), live);
      EXPECT_EQ(event.handle.cancel(), live);
      if (live) {
        expected_.erase(event.key);
        event.state = State::kCancelled;
      }
    } else if (kind < 14) {
      // Deadlines between entries and beyond them.
      const SimTime deadline = now_ + delay();
      const std::size_t ran = loop_.run_until(deadline);
      EXPECT_EQ(ran, ran_in_op_);
      if (!expected_.empty()) {
        EXPECT_GT(expected_.begin()->first.first, deadline);
      }
      now_ = deadline;
    } else if (kind < 15) {
      const std::size_t limit = draw(8);
      const std::size_t ran = loop_.run(limit);
      EXPECT_EQ(ran, ran_in_op_);
      EXPECT_TRUE(ran == limit || expected_.empty());
    } else if (kind < 16) {
      const bool had_work = !expected_.empty();
      EXPECT_EQ(loop_.step(), had_work);
      EXPECT_EQ(ran_in_op_, had_work ? 1u : 0u);
    } else {
      // The shard barrier's pattern: peek, then schedule between now() and
      // the peeked time, as a cross-shard delivery may.
      constexpr SimTime kIdle = -1;
      const SimTime next = loop_.next_event_time(kIdle);
      EXPECT_EQ(next,
                expected_.empty() ? kIdle : expected_.begin()->first.first);
      if (next != kIdle && draw(2) == 0) {
        const auto span = static_cast<std::uint64_t>(next - now_);
        schedule(now_ + static_cast<SimTime>(draw(span + 1)), draw(4) == 0);
      }
    }
  }

  void check_counts() {
    EXPECT_EQ(loop_.now(), now_);
    EXPECT_EQ(loop_.pending(), expected_.size());
    EXPECT_EQ(loop_.executed(), executed_);
  }

  std::mt19937_64 rng_;
  EventLoop loop_;
  std::vector<Event> events_;
  std::map<Key, std::size_t> expected_;  // pending events by run order
  std::uint64_t next_number_ = 0;
  SimTime now_ = 0;
  std::size_t executed_ = 0;
  std::size_t ran_in_op_ = 0;
};

TEST(EventLoopTest, MatchesAReferenceOrderUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ReferenceOrder(seed).run_operations(2000);
    if (HasFailure()) return;
  }
}

// Ownership guard: once a loop is exclusive, handle operations from a
// thread not acting for it are rejected and counted, never raced.
TEST(EventLoopTest, ForeignThreadCancelRejected) {
  EventLoop loop;
  int fired = 0;
  EventHandle handle = loop.schedule_at(10, [&] { ++fired; });
  loop.set_exclusive(true);
  const EventLoop::ActingAs owner(loop);
  std::thread foreign([&] {
    EXPECT_FALSE(handle.active());
    EXPECT_FALSE(handle.cancel());
  });
  foreign.join();
  EXPECT_EQ(loop.foreign_cancels_rejected(), 1u);
  EXPECT_TRUE(handle.active());  // owner view is untouched
  loop.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace aars::sim
