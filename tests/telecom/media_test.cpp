#include "telecom/media.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "testing/test_components.h"

namespace aars::telecom {
namespace {

using aars::testing::AppFixture;
using util::Value;

class MediaTest : public AppFixture {
 protected:
  MediaTest() { register_media_components(registry_); }
};

TEST_F(MediaTest, RegistryKnowsAllTypes) {
  for (const char* type :
       {"FrameExtractor", "VideoEncoder", "Transmitter", "MediaServer"}) {
    EXPECT_TRUE(registry_.has_type(type)) << type;
  }
}

TEST_F(MediaTest, PipelineStagesProcessInOrder) {
  const auto ex = direct_to("FrameExtractor", "ex", node_a_);
  const auto enc = direct_to("VideoEncoder", "enc", node_a_);
  const auto tx = direct_to("Transmitter", "tx", node_b_);

  auto r1 = app_.invoke_sync(ex, "process",
                             Value::object({{"data", "raw"}}), node_c_);
  ASSERT_TRUE(r1.result.ok()) << r1.result.error().message();
  EXPECT_EQ(r1.result.value().at("stage").as_string(), "extracted");

  auto r2 = app_.invoke_sync(
      enc, "process", Value::object({{"data", r1.result.value()}}), node_c_);
  ASSERT_TRUE(r2.result.ok());
  EXPECT_EQ(r2.result.value().at("stage").as_string(), "encoded");
  EXPECT_EQ(r2.result.value().at("codec").as_string(), "fast");

  auto r3 = app_.invoke_sync(
      tx, "process", Value::object({{"data", r2.result.value()}}), node_c_);
  ASSERT_TRUE(r3.result.ok());
  EXPECT_EQ(r3.result.value().at("stage").as_string(), "transmitted");
}

TEST_F(MediaTest, EncoderCodecAttributeChangesCost) {
  auto fast = app_.instantiate("VideoEncoder", "fast", node_a_,
                               Value::object({{"codec", "fast"}}));
  auto quality = app_.instantiate("VideoEncoder", "hq", node_a_,
                                  Value::object({{"codec", "quality"}}));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(quality.ok());
  const auto* f = app_.find_component(fast.value());
  const auto* q = app_.find_component(quality.value());
  EXPECT_LT(f->work_cost("process"), q->work_cost("process"));
}

TEST_F(MediaTest, EncoderRejectsUnknownCodec) {
  auto bad = app_.instantiate("VideoEncoder", "bad", node_a_,
                              Value::object({{"codec", "divx"}}));
  EXPECT_FALSE(bad.ok());
}

TEST_F(MediaTest, MediaServerServesFramesAndCounts) {
  const auto conn = direct_to("MediaServer", "srv", node_a_);
  for (int i = 0; i < 3; ++i) {
    auto outcome = app_.invoke_sync(
        conn, "frame",
        Value::object({{"session", 7}, {"quality", 3}}), node_b_);
    ASSERT_TRUE(outcome.result.ok()) << outcome.result.error().message();
    EXPECT_EQ(outcome.result.value().at("quality").as_int(), 3);
    EXPECT_EQ(outcome.result.value().at("frame_no").as_int(), i + 1);
  }
  auto* server = dynamic_cast<MediaServer*>(
      app_.find_component(app_.component_id("srv")));
  EXPECT_EQ(server->frames_served(), 3);
}

TEST_F(MediaTest, MediaServerStateSurvivesSnapshotRestore) {
  const auto conn = direct_to("MediaServer", "srv", node_a_);
  (void)app_.invoke_sync(conn, "frame", Value::object({{"session", 1}}),
                         node_b_);
  (void)app_.invoke_sync(conn, "frame", Value::object({{"session", 1}}),
                         node_b_);
  const auto id = app_.component_id("srv");
  auto snap = app_.snapshot_component(id);
  ASSERT_TRUE(snap.ok());

  auto clone = app_.instantiate("MediaServer", "clone", node_b_, Value{});
  ASSERT_TRUE(clone.ok());
  ASSERT_TRUE(app_.restore_component(clone.value(), snap.value()).ok());
  auto* restored =
      dynamic_cast<MediaServer*>(app_.find_component(clone.value()));
  EXPECT_EQ(restored->frames_served(), 2);
  // The per-session counter continues where the original left off.
  connector::ConnectorSpec spec;
  spec.name = "to_clone";
  auto conn2 = app_.create_connector(spec);
  ASSERT_TRUE(app_.add_provider(conn2.value(), clone.value()).ok());
  auto outcome = app_.invoke_sync(conn2.value(), "frame",
                                  Value::object({{"session", 1}}), node_b_);
  EXPECT_EQ(outcome.result.value().at("frame_no").as_int(), 3);
}

TEST_F(MediaTest, FullSessionTableSurvivesSnapshotRestore) {
  // A default 4,096-slot server streaming for twice as many sessions: the
  // snapshot carries every occupied slot, and the clone's counters continue
  // the original's session by session.
  const auto conn = direct_to("MediaServer", "srv", node_a_);
  const std::int64_t sessions = 8192;
  for (std::int64_t s = 0; s < sessions; ++s) {
    for (std::int64_t f = 0; f <= s % 3; ++f) {
      (void)app_.invoke_sync(conn, "frame",
                             Value::object({{"session", s * 7919}}), node_b_);
    }
  }
  auto snap = app_.snapshot_component(app_.component_id("srv"));
  ASSERT_TRUE(snap.ok());
  const Value& per_session = snap.value().state.at("per_session");
  ASSERT_TRUE(per_session.is_map());
  EXPECT_GT(per_session.size(), 2048u);
  EXPECT_LE(per_session.size(), 4096u);
  const std::string* prev = nullptr;
  for (const auto& [key, count] : per_session.as_map()) {
    if (prev != nullptr) {
      EXPECT_LT(*prev, key);
    }
    prev = &key;
  }

  auto clone = app_.instantiate("MediaServer", "clone", node_b_, Value{});
  ASSERT_TRUE(clone.ok());
  ASSERT_TRUE(app_.restore_component(clone.value(), snap.value()).ok());
  connector::ConnectorSpec spec;
  spec.name = "to_clone";
  auto conn2 = app_.create_connector(spec);
  ASSERT_TRUE(app_.add_provider(conn2.value(), clone.value()).ok());
  for (std::int64_t s = 0; s < sessions; ++s) {
    const Value args = Value::object({{"session", s * 7919}});
    auto original = app_.invoke_sync(conn, "frame", args, node_b_);
    auto restored = app_.invoke_sync(conn2.value(), "frame", args, node_b_);
    ASSERT_TRUE(original.result.ok());
    ASSERT_TRUE(restored.result.ok());
    ASSERT_EQ(restored.result.value().at("frame_no"),
              original.result.value().at("frame_no"))
        << "session " << s * 7919;
  }
}

TEST_F(MediaTest, MediaServerSessionTableIsBoundedWithEviction) {
  auto made = app_.instantiate("MediaServer", "bounded", node_a_,
                               Value::object({{"session_slots", 2}}));
  ASSERT_TRUE(made.ok()) << made.error().message();
  connector::ConnectorSpec spec;
  spec.name = "to_bounded";
  auto conn = app_.create_connector(spec);
  ASSERT_TRUE(app_.add_provider(conn.value(), made.value()).ok());
  auto* server = dynamic_cast<MediaServer*>(app_.find_component(made.value()));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->session_slots(), 2u);

  // Stream frames for far more distinct sessions than the table holds:
  // colliding sessions evict each other (their frame_no restarts) instead
  // of growing per-session state without bound.
  for (std::int64_t s = 0; s < 64; ++s) {
    auto outcome = app_.invoke_sync(
        conn.value(), "frame", Value::object({{"session", s}}), node_b_);
    ASSERT_TRUE(outcome.result.ok());
    EXPECT_EQ(outcome.result.value().at("frame_no").as_int(), 1);
  }
  EXPECT_GT(server->session_evictions(), 0u);
  EXPECT_EQ(server->frames_served(), 64);
}

TEST_F(MediaTest, MediaServerRejectsNonPositiveSessionSlots) {
  auto bad = app_.instantiate("MediaServer", "bad", node_a_,
                              Value::object({{"session_slots", 0}}));
  EXPECT_FALSE(bad.ok());
}

TEST_F(MediaTest, InterfacesSatisfyDeclaredShapes) {
  FrameExtractor extractor("x");
  EXPECT_TRUE(
      extractor.provided().satisfies(media_stage_interface()).ok());
  MediaServer server("s");
  EXPECT_TRUE(server.provided().satisfies(media_service_interface()).ok());
}

}  // namespace
}  // namespace aars::telecom
