#include "sim/shard_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "testing/cpu_confinement.h"
#include "util/errors.h"
#include "util/time.h"

namespace aars::sim {
namespace {

using testing::ConfineToCpus;
using util::InvariantViolation;

/// N loops + a ShardSet over them, with a per-shard transcript vector so
/// runner threads never share a log line buffer.
struct Harness {
  explicit Harness(std::size_t n, ShardSet::Options options = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      loops.push_back(std::make_unique<EventLoop>());
    }
    std::vector<EventLoop*> raw;
    for (auto& l : loops) raw.push_back(l.get());
    set = std::make_unique<ShardSet>(std::move(raw), options);
    log.resize(n);
  }
  std::string transcript() const {
    std::ostringstream out;
    for (const auto& shard_log : log) {
      for (const auto& line : shard_log) out << line << "\n";
    }
    return out.str();
  }

  std::vector<std::unique_ptr<EventLoop>> loops;
  std::unique_ptr<ShardSet> set;
  std::vector<std::vector<std::string>> log;
};

TEST(ShardSetTest, SingleShardRunsInline) {
  Harness h(1);
  int fired = 0;
  h.set->post(0, 0, 10, [&] { ++fired; });
  EXPECT_EQ(h.set->run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(h.set->windows(), 0u);  // no barriers in single-shard mode
  EXPECT_EQ(h.set->cross_shard_delivered(), 0u);
}

TEST(ShardSetTest, SingleShardBarrierActionsRunInline) {
  Harness h(1);
  int calls = 0;
  h.set->at_barrier([&](SimTime) { return ++calls < 2; });
  h.set->run();
  EXPECT_EQ(calls, 2);  // start + end of run(); then unregistered
  h.set->run();
  EXPECT_EQ(calls, 2);
}

TEST(ShardSetTest, RejectsBadConfiguration) {
  EXPECT_THROW((ShardSet(std::vector<EventLoop*>{}, ShardSet::Options{})),
               InvariantViolation);
  EventLoop loop;
  ShardSet::Options zero_lookahead;
  zero_lookahead.lookahead = 0;
  EXPECT_THROW((ShardSet({&loop}, zero_lookahead)), InvariantViolation);
}

TEST(ShardSetTest, CrossShardPostBelowLookaheadThrows) {
  Harness h(2);
  const auto lookahead = h.set->lookahead();
  EXPECT_THROW(h.set->post(0, 1, lookahead - 1, [] {}), InvariantViolation);
  h.set->post(0, 1, lookahead, [] {});  // exactly at the bound is legal
}

TEST(ShardSetTest, DeliversCrossShardEvents) {
  Harness h(2);
  std::atomic<int> received{0};
  ShardSet& set = *h.set;
  set.post(0, 0, 10, [&] {
    set.post(0, 1, h.loops[0]->now() + set.lookahead(),
             [&] { received.fetch_add(1); });
  });
  set.run();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(set.cross_shard_delivered(), 1u);
  EXPECT_GE(set.windows(), 1u);
}

TEST(ShardSetTest, MailboxOverflowDegradesLosslessly) {
  ShardSet::Options options;
  options.mailbox_capacity = 1;
  Harness h(2, options);
  std::atomic<int> received{0};
  constexpr int kPosts = 16;
  for (int i = 0; i < kPosts; ++i) {
    h.set->post(0, 1, h.set->lookahead() + i, [&] { received.fetch_add(1); });
  }
  h.set->run();
  EXPECT_EQ(received.load(), kPosts);
  EXPECT_EQ(h.set->cross_shard_delivered(), static_cast<std::uint64_t>(kPosts));
  // Ring capacity 1 holds exactly one event; the rest took the overflow
  // path and still arrived.
  EXPECT_EQ(h.set->mailbox_overflows(), static_cast<std::uint64_t>(kPosts - 1));
}

TEST(ShardSetTest, RunUntilAdvancesEveryIdleClock) {
  Harness h(3);
  h.set->run_until(util::milliseconds(5));
  EXPECT_EQ(h.set->now(), util::milliseconds(5));
  for (auto& loop : h.loops) EXPECT_EQ(loop->now(), util::milliseconds(5));
}

TEST(ShardSetTest, IdleBarrierActionsStillAdvanceTime) {
  Harness h(2);
  int barriers = 0;
  h.set->at_barrier([&](SimTime) { return ++barriers < 3; });
  h.set->run();  // no events at all: time must move for the action
  EXPECT_EQ(barriers, 3);
  EXPECT_GT(h.set->now(), 0);
}

/// An event far in the future on shard 0, attacked mid-window from shard
/// 1: the cancel must be rejected (counted), not executed.
void expect_foreign_cancel_rejected(std::size_t runners) {
  Harness h(2);
  ASSERT_EQ(h.set->runners(), runners);
  int fired = 0;
  EventHandle handle =
      h.loops[0]->schedule_at(util::milliseconds(50), [&] { ++fired; });
  h.set->post(1, 1, 10, [&] { EXPECT_FALSE(handle.cancel()); });
  h.set->run();
  EXPECT_EQ(fired, 1);  // the cancel did not land
  EXPECT_EQ(h.set->foreign_cancels_rejected(), 1u);
}

TEST(ShardSetTest, ForeignHandleCancelRejectedNotRaced) {
  expect_foreign_cancel_rejected(std::min<std::size_t>(2, usable_cpus()));
  // One CPU: both shards run on the calling thread, and ownership must
  // still tell them apart.
  const ConfineToCpus one_cpu(1);
  ASSERT_TRUE(one_cpu.confined());
  expect_foreign_cancel_rejected(1);
}

/// Shard 1's event throws mid-window; run() must rethrow it once every
/// runner is done with the window, and leave a set that destroys cleanly.
void expect_event_exception_propagates(std::size_t runners) {
  Harness h(2);
  ASSERT_EQ(h.set->runners(), runners);
  int ran = 0;
  h.set->post(0, 0, 10, [&] { ++ran; });
  h.set->post(1, 1, 10, [] { throw std::runtime_error("shard 1 failed"); });
  EXPECT_THROW(h.set->run(), std::runtime_error);
  EXPECT_EQ(ran, 1);  // shard 0 ran its window before (or while) 1 threw
}

TEST(ShardSetTest, EventExceptionPropagatesFromRun) {
  // Shard 1 on a helper thread where CPUs allow, else on the caller.
  expect_event_exception_propagates(std::min<std::size_t>(2, usable_cpus()));
  const ConfineToCpus one_cpu(1);
  ASSERT_TRUE(one_cpu.confined());
  expect_event_exception_propagates(1);
}

std::size_t threads_in_process() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(ShardSetTest, RunnerCountFollowsTheAffinityMask) {
  {
    const ConfineToCpus one_cpu(1);
    ASSERT_TRUE(one_cpu.confined());
    EXPECT_EQ(usable_cpus(), 1u);
    const std::size_t before = threads_in_process();
    Harness h(4);
    EXPECT_EQ(h.set->runners(), 1u);
    std::atomic<int> received{0};
    for (std::size_t s = 0; s < 4; ++s) {
      h.set->post(s, (s + 1) % 4, h.set->lookahead(),
                  [&] { received.fetch_add(1); });
    }
    h.set->run();
    EXPECT_EQ(received.load(), 4);
    EXPECT_GE(h.set->windows(), 1u);
    EXPECT_EQ(threads_in_process(), before);
  }
  Harness h(4);
  EXPECT_EQ(h.set->runners(), std::min<std::size_t>(4, usable_cpus()));
}

// The determinism contract: a fixed workload over 4 shards with cross-shard
// traffic produces an identical transcript on every run, regardless of how
// the OS schedules the runner threads and of how many runners there are.
std::string run_deterministic_workload() {
  Harness h(4);
  ShardSet& set = *h.set;
  const std::size_t n = h.loops.size();
  for (std::size_t s = 0; s < n; ++s) {
    for (int k = 0; k < 20; ++k) {
      h.loops[s]->schedule_at((k + 1) * 500 + static_cast<SimTime>(s), [&h,
                                                                       &set, s,
                                                                       k, n] {
        std::ostringstream line;
        line << "local s=" << s << " k=" << k << " t=" << h.loops[s]->now();
        h.log[s].push_back(line.str());
        if (k % 3 == 0) {
          const std::size_t to = (s + 1) % n;
          set.post(s, to, h.loops[s]->now() + set.lookahead(),
                   [&h, s, k, to] {
                     std::ostringstream x;
                     x << "cross from=" << s << " k=" << k
                       << " t=" << h.loops[to]->now();
                     h.log[to].push_back(x.str());
                   });
        }
      });
    }
  }
  set.run();
  std::ostringstream out;
  out << h.transcript();
  out << "executed=" << set.executed()
      << " delivered=" << set.cross_shard_delivered() << "\n";
  return out.str();
}

TEST(ShardSetTest, FourShardRunsAreReproducible) {
  const std::string first = run_deterministic_workload();
  const std::string second = run_deterministic_workload();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("cross from="), std::string::npos);
  EXPECT_EQ(first, second);
  if (usable_cpus() >= 2) {
    // Two runners, each driving two shards per window.
    const ConfineToCpus two_cpus(2);
    ASSERT_TRUE(two_cpus.confined());
    EXPECT_EQ(run_deterministic_workload(), first);
  }
  const ConfineToCpus one_cpu(1);
  ASSERT_TRUE(one_cpu.confined());
  EXPECT_EQ(run_deterministic_workload(), first);
}

}  // namespace
}  // namespace aars::sim
