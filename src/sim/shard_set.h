// Sharded execution: N event loops, conservative time windows, lock-free
// cross-shard mailboxes, run on as many threads as the process has CPUs.
//
// A ShardSet partitions a simulated world into N shards, each owning one
// EventLoop (and, above this layer, one per-shard runtime stack), and runs
// them on T = min(N, usable_cpus()) *runners*.  The thread that calls
// run()/run_until() is runner 0 (the coordinator); T-1 helper threads,
// started with the set, are the others.  Runner r executes shards r, r+T,
// r+2T, ... one after another, an assignment fixed for the set's lifetime,
// so a process that may use one CPU starts no thread at all.  Execution is
// fork/join in *conservative time windows*:
//
//   barrier:  helpers parked.  The coordinator drains every mailbox, runs
//             registered barrier actions (migration state machines,
//             probes), computes the next window
//             window_end = min(next event over all shards) + lookahead
//             and hands each helper its target.
//   window:   each runner runs its shards' loops up to window_end, the
//             runners in parallel, posting cross-shard work into mailboxes
//             (never touching another shard's loop directly).
//
// The lookahead is the minimum latency of any cross-shard link: a message
// sent during a window is delivered no earlier than sender_now + lookahead
// >= window_end, so nothing a shard does mid-window can schedule into a
// peer's already-executing past.  post() enforces that bound.
//
// Mailboxes are bounded lock-free SPSC rings (sim/spsc.h), one per ordered
// shard pair — the runner executing the sending shard is the only
// producer, the coordinator (at the barrier, helpers parked) the only
// consumer.  When a ring fills mid-window the sender diverts to a
// sender-local overflow vector instead of spinning (the consumer won't
// drain until the barrier, so spinning would deadlock the window); the
// park/unpark handshake makes the overflow safely visible to the
// coordinator.
//
// Ownership: during a window each loop is exclusive to its own shard
// (EventLoop::set_exclusive) and a runner acts for the shard it executes,
// so a handle operation on another shard's loop is rejected even when both
// shards share a thread.  Between windows only the coordinator runs.
//
// Determinism: windows derive only from simulated event times, mailboxes
// drain in fixed order (sender shard 0..N-1, FIFO within a pair, ring
// before overflow), and the receiver schedules drained events in that
// order, which orders its same-instant events — so a run is reproducible
// for a fixed (seed, shard count), independent of thread scheduling and of
// the runner count.  N=1
// bypasses threads, windows and mailboxes entirely and is byte-identical
// to unsharded execution (the golden determinism digest is the regression
// test).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_loop.h"
#include "sim/spsc.h"
#include "util/errors.h"
#include "util/time.h"

namespace aars::sim {

/// CPUs the calling thread's affinity mask allows (what `taskset` or a
/// container's cpuset leaves it); hardware_concurrency() where the mask
/// cannot be read; at least 1.  Reads the mask on every call.
std::size_t usable_cpus();

class ShardSet {
 public:
  struct Options {
    /// Conservative window slack; must be <= every cross-shard link
    /// latency (the sharded runtime derives it as their minimum).
    Duration lookahead = util::kMillisecond;
    /// Per-(sender, receiver) ring capacity; overflow past this spills to
    /// a sender-local vector, costing nothing but the ring's losslessness.
    std::size_t mailbox_capacity = 4096;
  };

  /// A barrier action: runs on the coordinator thread between windows,
  /// with every helper parked, receiving the barrier's simulated time.
  /// Returns true to stay registered for the next barrier, false to
  /// unregister (one-shot actions and finished state machines).
  using BarrierAction = std::function<bool(SimTime)>;

  /// `loops[i]` is shard i's event loop; borrowed, must outlive the set.
  /// For N > 1 the runner count is fixed here from usable_cpus(), and the
  /// helper threads start parked; if one fails to start, those already
  /// running are stopped and joined and the error is rethrown.
  ShardSet(std::vector<EventLoop*> loops, Options options);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t shard_count() const { return loops_.size(); }
  /// Threads that execute windows: min(N, usable_cpus()) for N > 1, the
  /// calling thread included; 1 for a single shard.
  std::size_t runners() const { return helpers_.size() + 1; }
  EventLoop& loop(std::size_t shard) { return *loops_[shard]; }
  Duration lookahead() const { return options_.lookahead; }
  /// The current barrier time (all loops stand at this time between
  /// windows; 0 before the first run).
  SimTime now() const { return now_; }

  /// Posts `fn` to run on shard `to` at simulated time `at`.
  ///   * from == to: schedules directly on the shard's loop (at >= now).
  ///   * cross-shard: requires at >= sender_now + lookahead (the
  ///     conservative bound) and enqueues into the (from, to) mailbox; the
  ///     coordinator schedules it on the receiver at the next barrier.
  /// Callable mid-window from shard `from`'s own code, or from the
  /// coordinator thread at a barrier / before running.
  void post(std::size_t from, std::size_t to, SimTime at,
            EventLoop::Callback fn);

  /// Registers a barrier action (coordinator thread only).  With N == 1
  /// there are no barriers; the action runs on the calling thread at the
  /// start and at the end of every run()/run_until(), until it returns
  /// false.
  void at_barrier(BarrierAction action);

  /// Runs windows until every shard is idle and every mailbox is empty.
  /// Returns the number of events executed across all shards.  An
  /// exception thrown by an event ends its runner's window; once every
  /// helper is parked, the lowest-numbered runner's exception propagates.
  std::size_t run();
  /// Runs windows until simulated time `deadline`; leaves every shard's
  /// clock at the deadline.
  std::size_t run_until(SimTime deadline);
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  // --- aggregate statistics ----------------------------------------------------
  /// Total events executed across all shards.
  std::size_t executed() const;
  /// Barrier count so far (0 in single-shard mode).
  std::uint64_t windows() const { return windows_; }
  /// Cross-shard events delivered through mailboxes.
  std::uint64_t cross_shard_delivered() const { return delivered_; }
  /// Deliveries that had to take the overflow path (ring full).
  std::uint64_t mailbox_overflows() const { return overflows_; }
  /// Sum of EventHandle operations rejected for crossing shards.
  std::uint64_t foreign_cancels_rejected() const;

  static constexpr SimTime kIdle = std::numeric_limits<SimTime>::max();

 private:
  struct CrossShardEvent {
    SimTime at = 0;
    EventLoop::Callback fn;
  };
  /// One ordered sender->receiver channel: lock-free ring + sender-local
  /// overflow (overflow is touched by the sender mid-window and by the
  /// coordinator at barriers; the park handshake orders the two).
  struct Mailbox {
    explicit Mailbox(std::size_t capacity) : ring(capacity) {}
    SpscRing<CrossShardEvent> ring;
    std::vector<CrossShardEvent> overflow;
  };
  /// Park/unpark handshake for one helper thread.  The coordinator bumps
  /// job_id (with target set) to launch a window; the helper reports back
  /// through done_id, with the exception its shards threw, if any.  Both
  /// transitions happen under the mutex, giving the happens-before edges
  /// that make loop state and mailbox overflow safe to touch from the
  /// other side.
  struct Helper {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t job_id = 0;
    std::uint64_t done_id = 0;
    SimTime target = 0;
    std::exception_ptr error;
    bool stop = false;
    std::thread thread;
  };

  void helper_main(std::size_t runner);
  /// Runs runner `runner`'s shards, in order, up to `window_end`; returns
  /// the exception that stopped it, or null.
  std::exception_ptr run_shards(std::size_t runner, SimTime window_end);
  /// Stops and joins every helper thread that is running.
  void stop_helpers();
  /// Runs one window to `window_end` on every runner: launches the
  /// helpers, runs runner 0's shards, and waits for the helpers to park.
  void run_window(SimTime window_end);
  /// Coordinator: moves every mailbox's content onto receiver loops in
  /// deterministic order.  Helpers must be parked.
  void drain_mailboxes();
  /// Runs due barrier actions; returns true if any remain registered.
  bool run_barrier_actions();
  /// Earliest live event over all shards, or kIdle.
  SimTime next_event_time();
  /// Sets every idle loop's clock forward to `t` (via run_until).
  void advance_all(SimTime t);
  Mailbox& mailbox(std::size_t from, std::size_t to) {
    return *mailboxes_[from * loops_.size() + to];
  }

  std::vector<EventLoop*> loops_;
  Options options_;
  SimTime now_ = 0;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // N*N, [from*N + to]
  std::vector<std::unique_ptr<Helper>> helpers_;     // runners 1..T-1
  std::vector<BarrierAction> barrier_actions_;
  std::uint64_t windows_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace aars::sim
