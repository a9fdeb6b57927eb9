#include "runtime/channel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aars::runtime {
namespace {

using util::ChannelId;
using util::ComponentId;
using util::ConnectorId;

Channel make() { return Channel(ChannelId{1}, ConnectorId{1}, ComponentId{1}); }

TEST(ChannelTest, SequencesAreMonotonic) {
  Channel chan = make();
  EXPECT_EQ(chan.next_sequence(), 1u);
  EXPECT_EQ(chan.next_sequence(), 2u);
  EXPECT_EQ(chan.sent(), 2u);
}

TEST(ChannelTest, DeliveryAccounting) {
  Channel chan = make();
  const auto s1 = chan.next_sequence();
  const auto s2 = chan.next_sequence();
  chan.record_delivery(s1);
  chan.record_delivery(s2);
  EXPECT_EQ(chan.delivered(), 2u);
  EXPECT_EQ(chan.missing(), 0u);
}

TEST(ChannelTest, DuplicateDetectionWithAudit) {
  Channel chan = make();
  const auto s1 = chan.next_sequence();
  chan.record_delivery(s1);
  chan.record_delivery(s1);
  EXPECT_EQ(chan.delivered(), 1u);
  EXPECT_EQ(chan.duplicated(), 1u);
}

TEST(ChannelTest, MissingCountsUnaccountedMessages) {
  Channel chan = make();
  (void)chan.next_sequence();
  (void)chan.next_sequence();
  (void)chan.next_sequence();
  chan.record_delivery(1);
  chan.record_drop();
  EXPECT_EQ(chan.missing(), 1u);
}

TEST(ChannelTest, BlockAndHold) {
  Channel chan = make();
  EXPECT_FALSE(chan.blocked());
  chan.block();
  EXPECT_TRUE(chan.blocked());
  int resumed = 0;
  HeldMessage first_held;
  first_held.resume = [&](component::Message) { ++resumed; };
  EXPECT_TRUE(chan.hold(std::move(first_held)).ok());
  HeldMessage second_held;
  second_held.resume = [&](component::Message) { ++resumed; };
  EXPECT_TRUE(chan.hold(std::move(second_held)).ok());
  EXPECT_EQ(chan.held_count(), 2u);
  chan.unblock();
  auto first = chan.take_held();
  ASSERT_TRUE(first.has_value());
  first->resume(first->message);
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(chan.held_count(), 1u);
  (void)chan.take_held();
  EXPECT_FALSE(chan.take_held().has_value());
}

TEST(ChannelTest, InFlightAccounting) {
  Channel chan = make();
  chan.on_depart();
  chan.on_depart();
  EXPECT_EQ(chan.in_flight(), 2u);
  chan.on_arrive();
  EXPECT_EQ(chan.in_flight(), 1u);
  chan.on_arrive();
  EXPECT_EQ(chan.in_flight(), 0u);
  EXPECT_THROW(chan.on_arrive(), util::InvariantViolation);
}

TEST(ChannelTest, DrainNotificationFiresAtZero) {
  Channel chan = make();
  chan.on_depart();
  int notified = 0;
  chan.notify_drained([&] { ++notified; });
  EXPECT_EQ(notified, 0);
  chan.on_arrive();
  EXPECT_EQ(notified, 1);
}

TEST(ChannelTest, DrainNotificationImmediateWhenIdle) {
  Channel chan = make();
  int notified = 0;
  chan.notify_drained([&] { ++notified; });
  EXPECT_EQ(notified, 1);
}

TEST(ChannelTest, MultipleDrainWaiters) {
  Channel chan = make();
  chan.on_depart();
  int notified = 0;
  chan.notify_drained([&] { ++notified; });
  chan.notify_drained([&] { ++notified; });
  chan.on_arrive();
  EXPECT_EQ(notified, 2);
}

TEST(ChannelTest, ProviderRetargetKeepsCounters) {
  Channel chan = make();
  (void)chan.next_sequence();
  chan.record_delivery(1);
  chan.set_provider(ComponentId{9});
  EXPECT_EQ(chan.provider(), ComponentId{9});
  EXPECT_EQ(chan.delivered(), 1u);
  EXPECT_EQ(chan.sent(), 1u);
}

TEST(ChannelTest, DelayTracking) {
  Channel chan = make();
  chan.record_delay(100);
  chan.record_delay(50);
  EXPECT_EQ(chan.max_delay(), 100);
}

// Regression: the audit kept one hash-set entry per delivered sequence
// forever, so long-running channels grew without bound. In-order traffic
// must collapse into the delivered watermark and track nothing.
TEST(ChannelTest, AuditMemoryCollapsesForInOrderTraffic) {
  Channel chan = make();
  for (int i = 0; i < 10000; ++i) {
    chan.record_delivery(chan.next_sequence());
  }
  EXPECT_EQ(chan.delivered(), 10000u);
  EXPECT_EQ(chan.duplicated(), 0u);
  EXPECT_EQ(chan.delivered_watermark(), 10000u);
  EXPECT_EQ(chan.audit_entries(), 0u);
}

// Permanent gaps (dropped messages) must not pin the watermark forever:
// the tracked set stays bounded by kAuditWindow.
TEST(ChannelTest, AuditMemoryBoundedDespiteDrops) {
  Channel chan = make();
  for (int i = 0; i < 50000; ++i) {
    const auto seq = chan.next_sequence();
    if (seq % 100 == 1) {
      chan.record_drop();  // every 100th message lost -> permanent gap
    } else {
      chan.record_delivery(seq);
    }
  }
  EXPECT_LE(chan.audit_entries(), Channel::kAuditWindow);
  EXPECT_EQ(chan.duplicated(), 0u);
  EXPECT_GT(chan.delivered_watermark(), 0u);
}

// Duplicate detection still works across the watermark: both a recently
// re-delivered sequence and one far below the watermark are flagged.
TEST(ChannelTest, DuplicatesDetectedAboveAndBelowWatermark) {
  Channel chan = make();
  for (int i = 0; i < 2000; ++i) {
    chan.record_delivery(chan.next_sequence());
  }
  chan.record_delivery(2000);  // just delivered (== watermark)
  chan.record_delivery(1);     // ancient, far below the watermark
  EXPECT_EQ(chan.duplicated(), 2u);
  EXPECT_EQ(chan.delivered(), 2000u);
}

// Out-of-order but gap-free delivery: the watermark catches up once the
// missing sequence arrives, and nothing is misclassified.
TEST(ChannelTest, OutOfOrderDeliveryAdvancesWatermarkOnGapFill) {
  Channel chan = make();
  for (int i = 0; i < 5; ++i) (void)chan.next_sequence();  // seq 1..5
  chan.record_delivery(2);
  chan.record_delivery(3);
  EXPECT_EQ(chan.delivered_watermark(), 0u);  // 1 still missing
  EXPECT_EQ(chan.audit_entries(), 2u);
  chan.record_delivery(1);
  EXPECT_EQ(chan.delivered_watermark(), 3u);  // collapsed 1..3
  EXPECT_EQ(chan.audit_entries(), 0u);
  chan.record_delivery(5);
  chan.record_delivery(4);
  EXPECT_EQ(chan.delivered_watermark(), 5u);
  EXPECT_EQ(chan.audit_entries(), 0u);
  EXPECT_EQ(chan.duplicated(), 0u);
  EXPECT_EQ(chan.delivered(), 5u);
}

HeldMessage make_held(component::Priority priority,
                      std::vector<std::string>* rejections,
                      const std::string& tag) {
  HeldMessage held;
  held.message.operation = tag;
  held.priority = static_cast<int>(priority);
  held.reject = [rejections, tag](component::Message, util::Error error) {
    rejections->push_back(tag + ":" + util::to_string(error.code()));
  };
  return held;
}

// The hold buffer is bounded: once the limit is reached, same-or-higher
// priority traffic already parked refuses new same-priority messages with
// kOverloaded, and the peak depth never exceeds the cap.
TEST(ChannelTest, HoldBufferCapRefusesWithOverloaded) {
  Channel chan = make();
  chan.set_hold_limit(2);
  chan.block();
  std::vector<std::string> rejections;
  EXPECT_TRUE(chan.hold(make_held(component::Priority::kNormal, &rejections,
                                  "a")).ok());
  EXPECT_TRUE(chan.hold(make_held(component::Priority::kNormal, &rejections,
                                  "b")).ok());
  const util::Status third =
      chan.hold(make_held(component::Priority::kNormal, &rejections, "c"));
  EXPECT_EQ(third.code(), util::ErrorCode::kOverloaded);
  EXPECT_EQ(chan.held_count(), 2u);
  EXPECT_LE(chan.held_peak(), chan.hold_limit());
  EXPECT_EQ(chan.hold_overflows(), 1u);
  EXPECT_EQ(chan.shed_held(), 0u);
  EXPECT_TRUE(rejections.empty());  // refusal is signalled via Status
}

// Higher-priority arrivals evict the youngest lower-priority held entry:
// control traffic can always be parked during quiescence.
TEST(ChannelTest, HoldBufferEvictsLowerPriorityForControl) {
  Channel chan = make();
  chan.set_hold_limit(2);
  chan.block();
  std::vector<std::string> rejections;
  ASSERT_TRUE(chan.hold(make_held(component::Priority::kBestEffort,
                                  &rejections, "old_be")).ok());
  ASSERT_TRUE(chan.hold(make_held(component::Priority::kBestEffort,
                                  &rejections, "young_be")).ok());
  const util::Status control = chan.hold(
      make_held(component::Priority::kControl, &rejections, "ctrl"));
  EXPECT_TRUE(control.ok());
  EXPECT_EQ(chan.held_count(), 2u);
  EXPECT_EQ(chan.shed_held(), 1u);
  EXPECT_EQ(chan.hold_overflows(), 1u);
  ASSERT_EQ(rejections.size(), 1u);
  EXPECT_EQ(rejections[0], "young_be:overloaded");  // youngest victim
  EXPECT_EQ(chan.dropped(), 1u);  // the shed message counts as dropped
  // FIFO order of the survivors: the old best-effort, then control.
  auto a = chan.take_held();
  auto b = chan.take_held();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->message.operation, "old_be");
  EXPECT_EQ(b->message.operation, "ctrl");
}

// Peak depth tracks the high-water mark and stays within the cap even
// under sustained overload with mixed priorities.
TEST(ChannelTest, HoldPeakStaysWithinCapUnderSustainedOverload) {
  Channel chan = make();
  chan.set_hold_limit(8);
  chan.block();
  std::vector<std::string> rejections;
  for (int i = 0; i < 100; ++i) {
    const auto priority = (i % 3 == 0) ? component::Priority::kHigh
                                       : component::Priority::kBestEffort;
    (void)chan.hold(make_held(priority, &rejections,
                              "m" + std::to_string(i)));
  }
  EXPECT_LE(chan.held_peak(), 8u);
  EXPECT_EQ(chan.held_count(), 8u);
  EXPECT_GT(chan.hold_overflows(), 0u);
  EXPECT_GT(chan.shed_held(), 0u);
}

}  // namespace
}  // namespace aars::runtime
