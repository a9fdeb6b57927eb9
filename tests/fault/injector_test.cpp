#include "fault/injector.h"

#include <gtest/gtest.h>

#include <vector>

#include "fault/scenario.h"
#include "testing/test_components.h"

namespace aars::fault {
namespace {

using aars::testing::AppFixture;
using util::ErrorCode;

class InjectorTest : public AppFixture {
 protected:
  InjectorTest() : injector_(app_) {}
  FaultInjector injector_;
};

TEST_F(InjectorTest, CrashSeversEveryLinkAndRestoreBringsThemBack) {
  ASSERT_TRUE(network_.has_link(node_a_, node_b_));
  ASSERT_TRUE(network_.has_link(node_b_, node_c_));

  ASSERT_TRUE(injector_.arm_text("at 1ms crash host=node_b for 1ms").ok());
  loop_.run_until(util::milliseconds(1));
  EXPECT_FALSE(injector_.host_up(node_b_));
  EXPECT_FALSE(network_.has_link(node_a_, node_b_));
  EXPECT_FALSE(network_.has_link(node_b_, node_a_));
  EXPECT_FALSE(network_.has_link(node_b_, node_c_));
  EXPECT_FALSE(network_.has_link(node_c_, node_b_));
  EXPECT_EQ(injector_.down_hosts().size(), 1u);
  EXPECT_EQ(injector_.active_faults(), 1u);

  loop_.run_until(util::milliseconds(2));
  EXPECT_TRUE(injector_.host_up(node_b_));
  EXPECT_TRUE(network_.has_link(node_a_, node_b_));
  EXPECT_TRUE(network_.has_link(node_b_, node_c_));
  EXPECT_EQ(injector_.active_faults(), 0u);
  // The restored link carries the original spec.
  ASSERT_NE(network_.find_link(node_a_, node_b_), nullptr);
  EXPECT_EQ(network_.find_link(node_a_, node_b_)->latency,
            util::milliseconds(1));
}

TEST_F(InjectorTest, CutAndHealLink) {
  ASSERT_TRUE(
      injector_.arm_text("at 1ms partition link=node_a-node_b for 1ms").ok());
  loop_.run_until(util::milliseconds(1));
  EXPECT_FALSE(network_.has_link(node_a_, node_b_));
  EXPECT_FALSE(network_.has_link(node_b_, node_a_));
  // The other link is untouched.
  EXPECT_TRUE(network_.has_link(node_b_, node_c_));

  loop_.run_until(util::milliseconds(2));
  EXPECT_TRUE(network_.has_link(node_a_, node_b_));
  EXPECT_TRUE(network_.has_link(node_b_, node_a_));
}

TEST_F(InjectorTest, DegradeWindowRestoresPristineQuality) {
  const util::Duration base =
      network_.find_link(node_a_, node_b_)->latency;
  ASSERT_TRUE(injector_
                  .arm_text("at 1ms degrade link=node_a-node_b latency=5ms "
                            "jitter=1ms for 1ms")
                  .ok());
  loop_.run_until(util::milliseconds(1));
  EXPECT_EQ(network_.find_link(node_a_, node_b_)->latency,
            base + util::milliseconds(5));
  EXPECT_EQ(network_.find_link(node_b_, node_a_)->jitter,
            util::milliseconds(1));

  loop_.run_until(util::milliseconds(2));
  EXPECT_EQ(network_.find_link(node_a_, node_b_)->latency, base);
  EXPECT_EQ(network_.find_link(node_a_, node_b_)->jitter, 0);
}

TEST_F(InjectorTest, LossBurstRestoresPristineProbability) {
  ASSERT_TRUE(
      injector_.arm_text("at 1ms loss link=node_a-node_b p=0.5 for 1ms").ok());
  loop_.run_until(util::milliseconds(1));
  EXPECT_DOUBLE_EQ(
      network_.find_link(node_a_, node_b_)->loss_probability, 0.5);
  EXPECT_DOUBLE_EQ(
      network_.find_link(node_b_, node_a_)->loss_probability, 0.5);

  loop_.run_until(util::milliseconds(2));
  EXPECT_DOUBLE_EQ(
      network_.find_link(node_a_, node_b_)->loss_probability, 0.0);
}

TEST_F(InjectorTest, LinkFaultOnMissingLinkIsNotFound) {
  // The fixture has no a<->c link.
  EXPECT_EQ(injector_
                .arm_text("at 1ms degrade link=node_a-node_c latency=1ms "
                          "for 1ms")
                .code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(
      injector_.arm_text("at 1ms loss link=node_a-node_c p=0.1 for 1ms")
          .code(),
      ErrorCode::kNotFound);
}

TEST_F(InjectorTest, OverlappingCrashesRestoreOnLastEnd) {
  ASSERT_TRUE(injector_
                  .arm_text("at 1ms crash host=node_b for 4ms\n"
                            "at 2ms crash host=node_b for 1ms\n")
                  .ok());
  loop_.run_until(util::milliseconds(3));  // the inner crash ended
  EXPECT_FALSE(injector_.host_up(node_b_));  // still held down
  EXPECT_FALSE(network_.has_link(node_a_, node_b_));
  loop_.run_until(util::milliseconds(5));
  EXPECT_TRUE(injector_.host_up(node_b_));
  EXPECT_TRUE(network_.has_link(node_a_, node_b_));
}

TEST_F(InjectorTest, RestartDoesNotResurrectAPartitionedLink) {
  ASSERT_TRUE(injector_
                  .arm_text("at 1ms crash host=node_b for 2ms\n"
                            "at 2ms partition link=node_a-node_b for 3ms\n")
                  .ok());
  // Host restarts, but the a<->b partition is still active: only b<->c
  // comes back.
  loop_.run_until(util::milliseconds(3));
  EXPECT_TRUE(injector_.host_up(node_b_));
  EXPECT_FALSE(network_.has_link(node_a_, node_b_));
  EXPECT_TRUE(network_.has_link(node_b_, node_c_));
  loop_.run_until(util::milliseconds(5));
  EXPECT_TRUE(network_.has_link(node_a_, node_b_));
}

TEST_F(InjectorTest, ArmSchedulesBeginAndEndOnTheTimeline) {
  FaultScenario storm("timeline");
  storm.crash("node_b", util::milliseconds(1), util::milliseconds(2));
  ASSERT_TRUE(injector_.arm(storm).ok());

  std::vector<FaultEvent> events;
  injector_.on_fault(
      [&events](const FaultEvent& ev) { events.push_back(ev); });

  bool down_during = false;
  loop_.schedule_at(util::milliseconds(2),
                    [&] { down_during = !injector_.host_up(node_b_); });
  loop_.run();

  EXPECT_TRUE(down_during);
  EXPECT_TRUE(injector_.host_up(node_b_));
  EXPECT_EQ(injector_.active_faults(), 0u);
  EXPECT_EQ(injector_.injected(), 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, FaultEvent::Phase::kBegin);
  EXPECT_EQ(events[0].at, util::milliseconds(1));
  EXPECT_EQ(events[0].host, node_b_);
  EXPECT_EQ(events[0].subject, "host node_b");
  EXPECT_EQ(events[1].phase, FaultEvent::Phase::kEnd);
  EXPECT_EQ(events[1].at, util::milliseconds(3));
  EXPECT_EQ(events[1].began_at, util::milliseconds(1));
}

TEST_F(InjectorTest, ArmRejectsUnknownNamesAtomically) {
  FaultScenario bad("bad");
  bad.crash("node_b", 0, 1000).crash("ghost", 10, 1000);
  const auto s = injector_.arm(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  loop_.run();
  // Nothing was scheduled — not even the valid first fault.
  EXPECT_EQ(injector_.injected(), 0u);
  EXPECT_TRUE(injector_.host_up(node_b_));
}

TEST_F(InjectorTest, ArmRejectsMissingLinks) {
  FaultScenario bad("bad");
  bad.partition("node_a", "node_c", 0, 1000);  // no such link
  EXPECT_EQ(injector_.arm(bad).code(), ErrorCode::kNotFound);
}

TEST_F(InjectorTest, ArmTextParsesAndArms) {
  ASSERT_TRUE(
      injector_.arm_text("at 1ms crash host=node_b for 1ms\n").ok());
  loop_.run();
  EXPECT_EQ(injector_.injected(), 2u);
  const auto bad = injector_.arm_text("at 1ms explode host=node_b for 1ms");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kParseError);
}

TEST_F(InjectorTest, FailStepWindowGatesShouldFailStep) {
  FaultScenario scenario;
  scenario.fail_step(2, util::milliseconds(10), util::milliseconds(5), 3);
  ASSERT_TRUE(injector_.arm(scenario).ok());

  // Before the window opens nothing fails.
  EXPECT_FALSE(injector_.should_fail_step(2, 3));
  loop_.run_until(util::milliseconds(12));
  // Window open: only step 2 of a 3-step plan matches.
  EXPECT_TRUE(injector_.should_fail_step(2, 3));
  EXPECT_FALSE(injector_.should_fail_step(1, 3));
  EXPECT_FALSE(injector_.should_fail_step(2, 2));
  loop_.run_until(util::milliseconds(20));
  // Window closed again.
  EXPECT_FALSE(injector_.should_fail_step(2, 3));
}

TEST_F(InjectorTest, FailStepWithoutOfMatchesAnyPlanLength) {
  FaultScenario scenario;
  scenario.fail_step(1, util::milliseconds(1), util::milliseconds(5));
  ASSERT_TRUE(injector_.arm(scenario).ok());
  loop_.run_until(util::milliseconds(2));
  EXPECT_TRUE(injector_.should_fail_step(1, 2));
  EXPECT_TRUE(injector_.should_fail_step(1, 7));
  EXPECT_FALSE(injector_.should_fail_step(2, 7));
}

}  // namespace
}  // namespace aars::fault
