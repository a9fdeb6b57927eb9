#include "telecom/session.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "telecom/media.h"
#include "testing/test_components.h"

namespace aars::telecom {
namespace {

using aars::testing::AppFixture;
using util::Value;

class SessionTest : public AppFixture {
 protected:
  SessionTest() {
    register_media_components(registry_);
    service_ = direct_to("MediaServer", "srv", node_a_);
    SessionManager::Options options;
    options.service = service_;
    options.fps = 10.0;
    sessions_ = std::make_unique<SessionManager>(app_, options);
  }

  util::ConnectorId service_;
  std::unique_ptr<SessionManager> sessions_;
};

TEST_F(SessionTest, SessionStreamsFramesUntilEnd) {
  const auto id =
      sessions_->start_session(3, node_b_, util::seconds(1));
  EXPECT_TRUE(sessions_->active(id));
  loop_.run();
  // 10 fps for 1 second.
  EXPECT_EQ(sessions_->frames_attempted(), 10u);
  EXPECT_EQ(sessions_->frames_ok(), 10u);
  EXPECT_EQ(sessions_->frames_failed(), 0u);
  EXPECT_FALSE(sessions_->active(id));  // expired
}

TEST_F(SessionTest, EndSessionStopsStreaming) {
  const auto id =
      sessions_->start_session(3, node_b_, util::seconds(10));
  loop_.run_until(util::milliseconds(250));
  ASSERT_TRUE(sessions_->end_session(id).ok());
  const auto frames = sessions_->frames_attempted();
  loop_.run_until(util::seconds(1));
  EXPECT_EQ(sessions_->frames_attempted(), frames);
  EXPECT_FALSE(sessions_->end_session(id).ok());
}

TEST_F(SessionTest, QualityCapsAtGlobalCeiling) {
  sessions_->set_global_quality(2);
  const auto id =
      sessions_->start_session(4, node_b_, util::seconds(1));
  EXPECT_EQ(sessions_->quality(id).value(), 2);
}

TEST_F(SessionTest, SetQualityPerSession) {
  const auto id =
      sessions_->start_session(4, node_b_, util::seconds(1));
  ASSERT_TRUE(sessions_->set_quality(id, 1).ok());
  EXPECT_EQ(sessions_->quality(id).value(), 1);
  EXPECT_FALSE(sessions_->set_quality(util::SessionId{999}, 1).ok());
}

TEST_F(SessionTest, GlobalQualityAppliesToRunningSessions) {
  const auto a = sessions_->start_session(4, node_b_, util::seconds(1));
  const auto b = sessions_->start_session(4, node_b_, util::seconds(1));
  sessions_->set_global_quality(1);
  EXPECT_EQ(sessions_->quality(a).value(), 1);
  EXPECT_EQ(sessions_->quality(b).value(), 1);
  EXPECT_EQ(sessions_->global_quality(), 1);
}

TEST_F(SessionTest, OfferedWorkScalesWithQualityAndSessions) {
  (void)sessions_->start_session(4, node_b_, util::seconds(1));
  const double one_hd = sessions_->offered_work_per_second();
  EXPECT_NEAR(one_hd, 10.0 * QualityLadder::at(4).work_units, 1e-9);
  (void)sessions_->start_session(4, node_b_, util::seconds(1));
  EXPECT_NEAR(sessions_->offered_work_per_second(), 2 * one_hd, 1e-9);
  sessions_->set_global_quality(0);
  EXPECT_LT(sessions_->offered_work_per_second(), one_hd);
}

TEST_F(SessionTest, UtilityAccruesPerDeliveredFrame) {
  (void)sessions_->start_session(4, node_b_, util::seconds(1));
  loop_.run();
  EXPECT_NEAR(sessions_->delivered_utility(),
              10.0 * QualityLadder::at(4).utility, 1e-9);
}

TEST_F(SessionTest, FrameListenersObserveLatencyAndQuality) {
  std::vector<int> qualities;
  std::vector<util::Duration> latencies;
  sessions_->on_frame([&](util::SessionId, util::Duration latency, bool ok,
                          int quality) {
    EXPECT_TRUE(ok);
    qualities.push_back(quality);
    latencies.push_back(latency);
  });
  (void)sessions_->start_session(2, node_b_, util::milliseconds(500));
  loop_.run();
  ASSERT_FALSE(qualities.empty());
  EXPECT_EQ(qualities.front(), 2);
  EXPECT_GT(latencies.front(), 0);
}

// Every frame carries its quality level's work scale in its control
// envelope, and nothing in its headers.
TEST_F(SessionTest, FramesCarryTheirLevelsWorkScale) {
  std::vector<component::Message> seen;
  app_.find_component(app_.component_id("srv"))
      ->observe([&](const component::Message& message,
                    const util::Result<Value>&) { seen.push_back(message); });
  (void)sessions_->start_session(3, node_b_, util::milliseconds(500));
  loop_.run();
  ASSERT_GE(seen.size(), 2u);
  for (const component::Message& frame : seen) {
    EXPECT_EQ(frame.control.work_scale,
              std::optional<double>(QualityLadder::at(3).work_units));
    EXPECT_TRUE(frame.headers.is_null());
  }
}

// An interceptor that stamps a header on one frame stamps that frame only:
// the next frame starts with no headers and the same work scale.
TEST_F(SessionTest, AHeaderStampedOnOneFrameDoesNotReachTheNext) {
  class StampFirst final : public connector::Interceptor {
   public:
    Verdict before(component::Message& request,
                   util::Result<Value>*) override {
      if (!stamped_) request.headers["stamp"] = true;
      stamped_ = true;
      return Verdict::kPass;
    }
    void after(const component::Message&, util::Result<Value>&) override {}
    std::string name() const override { return "stamp_first"; }

   private:
    bool stamped_ = false;
  };
  ASSERT_TRUE(app_.find_connector(service_)
                  ->attach_interceptor(std::make_shared<StampFirst>(), 0)
                  .ok());
  std::vector<component::Message> seen;
  app_.find_component(app_.component_id("srv"))
      ->observe([&](const component::Message& message,
                    const util::Result<Value>&) { seen.push_back(message); });
  (void)sessions_->start_session(3, node_b_, util::milliseconds(500));
  loop_.run();
  ASSERT_GE(seen.size(), 2u);
  EXPECT_TRUE(seen[0].headers.contains("stamp"));
  EXPECT_TRUE(seen[1].headers.is_null());
  EXPECT_EQ(seen[1].control.work_scale, seen[0].control.work_scale);
}

TEST_F(SessionTest, FailedFramesCounted) {
  // Passivate the server: all frames fail.
  ASSERT_TRUE(app_.passivate_component(app_.component_id("srv")).ok());
  (void)sessions_->start_session(2, node_b_, util::milliseconds(500));
  loop_.run();
  EXPECT_EQ(sessions_->frames_ok(), 0u);
  EXPECT_GT(sessions_->frames_failed(), 0u);
}

TEST_F(SessionTest, HigherQualityCostsMoreServerTime) {
  sessions_->set_global_quality(0);
  (void)sessions_->start_session(0, node_b_, loop_.now() + util::seconds(1));
  loop_.run();
  const double low_work = network_.node(node_a_).total_work();
  sessions_->set_global_quality(4);
  (void)sessions_->start_session(4, node_b_, loop_.now() + util::seconds(1));
  loop_.run();
  const double high_work = network_.node(node_a_).total_work() - low_work;
  EXPECT_GT(high_work, low_work * 2);
}

TEST_F(SessionTest, StaleHandleRejectedAfterSlotReuse) {
  const auto first = sessions_->start_session(3, node_b_, util::seconds(10));
  ASSERT_TRUE(sessions_->end_session(first).ok());
  const auto second = sessions_->start_session(2, node_b_, util::seconds(10));
  // The slab recycled the slot, but the generation brand changed: the
  // retired handle must not alias the new occupant.
  EXPECT_EQ(second.raw() & 0xffffffffu, first.raw() & 0xffffffffu);
  EXPECT_NE(second.raw(), first.raw());
  EXPECT_FALSE(sessions_->active(first));
  EXPECT_FALSE(sessions_->set_quality(first, 1).ok());
  EXPECT_EQ(sessions_->quality(second).value(), 2);
}

TEST_F(SessionTest, ForgedHandlesNeverResolve) {
  (void)sessions_->start_session(3, node_b_, util::seconds(1));
  EXPECT_FALSE(sessions_->active(util::SessionId{}));
  // Small-integer forgery: generations start at 1, so a raw slot number
  // with generation 0 can never match.
  EXPECT_FALSE(sessions_->active(util::SessionId{1}));
  EXPECT_FALSE(sessions_->active(util::SessionId{999}));
  // Right slot, wrong generation.
  EXPECT_FALSE(
      sessions_->quality(util::SessionId{(0xdeadbeefULL << 32) | 1}).ok());
}

TEST_F(SessionTest, SlabRecyclesSlotsUnderChurn) {
  for (int round = 0; round < 50; ++round) {
    std::vector<util::SessionId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(sessions_->start_session(2, node_b_, util::seconds(100)));
    }
    for (const auto id : ids) ASSERT_TRUE(sessions_->end_session(id).ok());
  }
  EXPECT_EQ(sessions_->active_count(), 0u);
  // 200 sessions churned through at most 4 slots.
  EXPECT_LE(sessions_->slot_count(), 4u);
}

/// Wheel-mode fixture: 2 fps (500ms gap) batched into 100ms buckets.
class WheelSessionTest : public AppFixture {
 protected:
  WheelSessionTest() {
    register_media_components(registry_);
    service_ = direct_to("MediaServer", "srv", node_a_);
    SessionManager::Options options;
    options.service = service_;
    options.fps = 2.0;
    options.frame_quantum = util::milliseconds(100);
    sessions_ = std::make_unique<SessionManager>(app_, options);
  }

  util::ConnectorId service_;
  std::unique_ptr<SessionManager> sessions_;
};

TEST_F(WheelSessionTest, WheelModeMatchesExactFrameBudget) {
  // The first slot's phase stagger is zero, so the wheel fires this
  // session's frames at exactly the instants exact mode would: 500ms,
  // 1000ms, 1500ms, 2000ms.
  const auto id = sessions_->start_session(3, node_b_, util::seconds(2));
  loop_.run();
  EXPECT_EQ(sessions_->frames_attempted(), 4u);
  EXPECT_EQ(sessions_->frames_ok(), 4u);
  EXPECT_FALSE(sessions_->active(id));  // expired
}

TEST_F(WheelSessionTest, PhaseStaggerSpreadsFirstFrames) {
  // Sessions admitted at the same instant must not collapse onto one
  // bucket: the deterministic phase stagger spreads them across the gap's
  // buckets so no single event fires the whole population (the frame-storm
  // guard the capacity bench depends on).
  std::set<SimTime> fire_times;
  sessions_->on_frame([&](util::SessionId, Duration latency, bool, int) {
    fire_times.insert(loop_.now() - latency);
  });
  for (int i = 0; i < 10; ++i) {
    (void)sessions_->start_session(2, node_b_, util::milliseconds(950));
  }
  loop_.run();
  EXPECT_GE(fire_times.size(), 4u);
}

TEST_F(WheelSessionTest, EndSessionStopsWheelFramesAndRecyclesSlot) {
  const auto id = sessions_->start_session(3, node_b_, util::seconds(30));
  loop_.run_until(util::milliseconds(600));  // one frame fired, rechained
  EXPECT_EQ(sessions_->frames_attempted(), 1u);
  ASSERT_TRUE(sessions_->end_session(id).ok());
  const auto frames = sessions_->frames_attempted();
  loop_.run_until(util::seconds(3));
  EXPECT_EQ(sessions_->frames_attempted(), frames);
  EXPECT_FALSE(sessions_->active(id));
  // The retired slot was freed when its pending bucket fired; a new
  // session reuses it instead of growing the slab.
  const auto next = sessions_->start_session(2, node_b_, util::seconds(30));
  EXPECT_TRUE(sessions_->active(next));
  EXPECT_EQ(sessions_->slot_count(), 1u);
}

}  // namespace
}  // namespace aars::telecom
