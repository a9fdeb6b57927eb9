#include "sim/shard_set.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace aars::sim {
namespace {

SimTime clamp_add(SimTime t, util::Duration d) {
  return t > ShardSet::kIdle - d ? ShardSet::kIdle : t + d;
}

}  // namespace

std::size_t usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ShardSet::ShardSet(std::vector<EventLoop*> loops, Options options)
    : loops_(std::move(loops)), options_(options) {
  util::require(!loops_.empty(), "a shard set needs at least one shard");
  for (EventLoop* loop : loops_) {
    util::require(loop != nullptr, "shard event loop must not be null");
  }
  util::require(options_.lookahead > 0, "lookahead must be positive");
  util::require(options_.mailbox_capacity > 0,
                "mailbox capacity must be positive");
  const std::size_t n = loops_.size();
  mailboxes_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(options_.mailbox_capacity));
  }
  if (n == 1) return;
  const std::size_t runner_count = std::min(n, usable_cpus());
  helpers_.reserve(runner_count - 1);
  for (std::size_t r = 1; r < runner_count; ++r) {
    helpers_.push_back(std::make_unique<Helper>());
  }
  try {
    for (std::size_t r = 1; r < runner_count; ++r) {
      helpers_[r - 1]->thread = std::thread(&ShardSet::helper_main, this, r);
    }
  } catch (...) {
    stop_helpers();
    throw;
  }
}

ShardSet::~ShardSet() { stop_helpers(); }

void ShardSet::stop_helpers() {
  for (auto& h : helpers_) {
    {
      std::lock_guard<std::mutex> lock(h->mu);
      h->stop = true;
    }
    h->cv.notify_all();
  }
  for (auto& h : helpers_) {
    if (h->thread.joinable()) h->thread.join();
  }
}

void ShardSet::helper_main(std::size_t runner) {
  Helper& h = *helpers_[runner - 1];
  std::uint64_t last = 0;
  for (;;) {
    SimTime target;
    {
      std::unique_lock<std::mutex> lock(h.mu);
      h.cv.wait(lock, [&] { return h.stop || h.job_id != last; });
      if (h.stop) return;
      last = h.job_id;
      target = h.target;
    }
    std::exception_ptr error = run_shards(runner, target);
    {
      std::lock_guard<std::mutex> lock(h.mu);
      h.error = std::move(error);
      h.done_id = last;
    }
    h.cv.notify_all();
  }
}

std::exception_ptr ShardSet::run_shards(std::size_t runner,
                                        SimTime window_end) {
  try {
    for (std::size_t s = runner; s < loops_.size(); s += runners()) {
      const EventLoop::ActingAs shard(*loops_[s]);
      loops_[s]->run_until(window_end);
    }
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void ShardSet::run_window(SimTime window_end) {
  // For the window each loop belongs to its own shard, whichever runner
  // executes it; afterwards the coordinator alone touches them again.
  for (EventLoop* loop : loops_) loop->set_exclusive(true);
  for (auto& h : helpers_) {
    {
      std::lock_guard<std::mutex> lock(h->mu);
      h->target = window_end;
      ++h->job_id;
    }
    h->cv.notify_all();
  }
  std::exception_ptr error = run_shards(0, window_end);
  for (auto& h : helpers_) {
    std::unique_lock<std::mutex> lock(h->mu);
    h->cv.wait(lock, [&] { return h->done_id == h->job_id; });
    if (!error) error = h->error;
    h->error = nullptr;
  }
  for (EventLoop* loop : loops_) loop->set_exclusive(false);
  if (error) std::rethrow_exception(error);
}

void ShardSet::post(std::size_t from, std::size_t to, SimTime at,
                    EventLoop::Callback fn) {
  util::require(from < loops_.size() && to < loops_.size(),
                "shard index out of range");
  util::require(static_cast<bool>(fn), "posted callback must be callable");
  if (from == to) {
    EventLoop* loop = loops_[to];
    loop->schedule_at(std::max(at, loop->now()), std::move(fn));
    return;
  }
  util::require(at >= clamp_add(loops_[from]->now(), options_.lookahead),
                "cross-shard post violates the lookahead bound");
  Mailbox& mb = mailbox(from, to);
  CrossShardEvent ev{at, std::move(fn)};
  if (!mb.ring.push(ev)) mb.overflow.push_back(std::move(ev));
}

void ShardSet::at_barrier(BarrierAction action) {
  util::require(static_cast<bool>(action), "barrier action must be callable");
  barrier_actions_.push_back(std::move(action));
}

bool ShardSet::run_barrier_actions() {
  if (barrier_actions_.empty()) return false;
  std::vector<BarrierAction> current;
  current.swap(barrier_actions_);
  std::vector<BarrierAction> kept;
  for (auto& action : current) {
    if (action(now_)) kept.push_back(std::move(action));
  }
  // Actions registered *during* this pass run from the next barrier on.
  for (auto& fresh : barrier_actions_) kept.push_back(std::move(fresh));
  barrier_actions_ = std::move(kept);
  return !barrier_actions_.empty();
}

SimTime ShardSet::next_event_time() {
  SimTime next = kIdle;
  for (EventLoop* loop : loops_) {
    next = std::min(next, loop->next_event_time(kIdle));
  }
  return next;
}

void ShardSet::advance_all(SimTime t) {
  for (EventLoop* loop : loops_) {
    if (loop->now() < t) loop->run_until(t);
  }
}

void ShardSet::drain_mailboxes() {
  const std::size_t n = loops_.size();
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      Mailbox& mb = mailbox(from, to);
      EventLoop* receiver = loops_[to];
      // Ring first (older than any overflow), then overflow, preserving the
      // sender's FIFO order — the receiver's schedule order, which orders
      // same-instant events, is set here, so this order is part of the
      // determinism contract.
      while (auto ev = mb.ring.pop()) {
        receiver->schedule_at(std::max(ev->at, receiver->now()),
                              std::move(ev->fn));
        ++delivered_;
      }
      if (!mb.overflow.empty()) {
        overflows_ += mb.overflow.size();
        for (CrossShardEvent& ev : mb.overflow) {
          receiver->schedule_at(std::max(ev.at, receiver->now()),
                                std::move(ev.fn));
          ++delivered_;
        }
        mb.overflow.clear();
      }
    }
  }
}

std::size_t ShardSet::run() {
  const std::size_t before = executed();
  if (loops_.size() == 1) {
    run_barrier_actions();
    loops_[0]->run();
    now_ = loops_[0]->now();
    run_barrier_actions();
    return executed() - before;
  }
  for (;;) {
    const bool actions_pending = run_barrier_actions();
    drain_mailboxes();
    const SimTime next = next_event_time();
    SimTime window_end;
    if (next == kIdle) {
      if (!actions_pending) break;
      // Idle but a state machine still wants barriers: advance time in
      // lookahead-sized steps so it can make progress.
      window_end = clamp_add(now_, options_.lookahead);
    } else {
      window_end = clamp_add(next, options_.lookahead);
    }
    run_window(window_end);
    drain_mailboxes();
    now_ = window_end;
    ++windows_;
  }
  return executed() - before;
}

std::size_t ShardSet::run_until(SimTime deadline) {
  util::require(deadline >= now_, "deadline is in the past");
  const std::size_t before = executed();
  if (loops_.size() == 1) {
    run_barrier_actions();
    loops_[0]->run_until(deadline);
    now_ = deadline;
    run_barrier_actions();
    return executed() - before;
  }
  for (;;) {
    const bool actions_pending = run_barrier_actions();
    drain_mailboxes();
    if (now_ >= deadline) break;
    const SimTime next = next_event_time();
    SimTime window_end;
    if (next == kIdle) {
      if (!actions_pending) {
        advance_all(deadline);
        now_ = deadline;
        break;
      }
      window_end = std::min(deadline, clamp_add(now_, options_.lookahead));
    } else if (next > deadline) {
      advance_all(deadline);
      now_ = deadline;
      break;
    } else {
      window_end = std::min(deadline, clamp_add(next, options_.lookahead));
    }
    run_window(window_end);
    drain_mailboxes();
    now_ = window_end;
    ++windows_;
  }
  return executed() - before;
}

std::size_t ShardSet::executed() const {
  std::size_t total = 0;
  for (const EventLoop* loop : loops_) total += loop->executed();
  return total;
}

std::uint64_t ShardSet::foreign_cancels_rejected() const {
  std::uint64_t total = 0;
  for (const EventLoop* loop : loops_) {
    total += loop->foreign_cancels_rejected();
  }
  return total;
}

}  // namespace aars::sim
