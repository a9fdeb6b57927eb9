#include "telecom/media.h"

#include <cstdint>
#include <string>
#include <vector>

#include "telecom/quality.h"

namespace aars::telecom {

using component::InterfaceDescription;
using component::ParamSpec;
using component::ServiceSignature;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Value;
using util::ValueType;

InterfaceDescription media_stage_interface() {
  InterfaceDescription desc("MediaStage", 1);
  desc.add_service(ServiceSignature{
      "process", {ParamSpec{"data", ValueType::kNull, false}},
      ValueType::kMap});
  return desc;
}

InterfaceDescription media_service_interface() {
  InterfaceDescription desc("MediaService", 1);
  desc.add_service(ServiceSignature{
      "frame",
      {ParamSpec{"session", ValueType::kInt, false},
       ParamSpec{"quality", ValueType::kInt, true}},
      ValueType::kMap});
  return desc;
}

// --- FrameExtractor ---------------------------------------------------------

FrameExtractor::FrameExtractor(const std::string& instance_name)
    : Component("FrameExtractor", instance_name) {
  set_provided(media_stage_interface());
  register_operation("process", 0.3, [](const Value& args) -> Result<Value> {
    return Value::object({{"data", args.at("data")},
                          {"stage", "extracted"}});
  });
}

// --- VideoEncoder -----------------------------------------------------------

VideoEncoder::VideoEncoder(const std::string& instance_name)
    : Component("VideoEncoder", instance_name) {
  set_provided(media_stage_interface());
  register_operation("process", 2.0, [this](const Value& args)
                                         -> Result<Value> {
    ++frames_encoded_;
    return Value::object({{"data", args.at("data")},
                          {"stage", "encoded"},
                          {"codec", codec_},
                          {"frames", frames_encoded_}});
  });
}

Status VideoEncoder::on_initialize(const Value& attributes) {
  const Value codec = attributes.at("codec");
  if (codec.is_string()) {
    codec_ = codec.as_string();
    if (codec_ != "fast" && codec_ != "quality") {
      return Error{ErrorCode::kInvalidArgument,
                   instance_name() + ": unknown codec '" + codec_ + "'"};
    }
    // The "quality" codec doubles the per-frame work.
    const double cost = codec_ == "quality" ? 4.0 : 2.0;
    (void)replace_operation("process", operation_handler("process"), cost);
  }
  return Status::success();
}

void VideoEncoder::save_state(Value& state) const {
  state["codec"] = codec_;
  state["frames_encoded"] = frames_encoded_;
}

Status VideoEncoder::load_state(const Value& state) {
  if (state.contains("codec")) codec_ = state.at("codec").as_string();
  if (state.contains("frames_encoded")) {
    frames_encoded_ = state.at("frames_encoded").as_int();
  }
  return Status::success();
}

// --- Transmitter ------------------------------------------------------------

Transmitter::Transmitter(const std::string& instance_name)
    : Component("Transmitter", instance_name) {
  set_provided(media_stage_interface());
  register_operation("process", 0.5, [this](const Value& args)
                                         -> Result<Value> {
    bytes_sent_ += static_cast<std::int64_t>(args.at("data").byte_size());
    return Value::object({{"data", args.at("data")},
                          {"stage", "transmitted"},
                          {"bytes_total", bytes_sent_}});
  });
}

void Transmitter::save_state(Value& state) const {
  state["bytes_sent"] = bytes_sent_;
}

Status Transmitter::load_state(const Value& state) {
  if (state.contains("bytes_sent")) {
    bytes_sent_ = state.at("bytes_sent").as_int();
  }
  return Status::success();
}

// --- MediaServer ------------------------------------------------------------

namespace {
std::uint64_t mix_session_key(std::int64_t key) {
  auto x = static_cast<std::uint64_t>(key);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

MediaServer::MediaServer(const std::string& instance_name)
    : Component("MediaServer", instance_name) {
  set_provided(media_service_interface());
  register_operation("frame", 1.0, [this](const Value& args)
                                       -> Result<Value> {
    ++frames_served_;
    SessionSlot& slot = slot_for(args.at("session").as_int());
    ++slot.count;
    const int quality = args.contains("quality")
                            ? static_cast<int>(args.at("quality").as_int())
                            : 2;
    const QualityLevel& q = QualityLadder::at(quality);
    set_resume_point("after_frame");
    return Value::object({{"session", args.at("session")},
                          {"quality", static_cast<std::int64_t>(q.level)},
                          {"bytes", static_cast<std::int64_t>(q.frame_bytes)},
                          {"frame_no", slot.count}});
  });
}

Status MediaServer::on_initialize(const Value& attributes) {
  const Value slots = attributes.at("session_slots");
  if (slots.is_int()) {
    if (slots.as_int() < 1) {
      return Error{ErrorCode::kInvalidArgument,
                   instance_name() + ": session_slots must be positive"};
    }
    // Round up to a power of two so the direct map can mask.
    std::size_t n = 1;
    while (n < static_cast<std::size_t>(slots.as_int())) n <<= 1;
    session_slots_ = n;
    per_session_.clear();
  }
  return Status::success();
}

MediaServer::SessionSlot& MediaServer::slot_for(std::int64_t session) {
  if (per_session_.empty()) per_session_.assign(session_slots_, SessionSlot{});
  SessionSlot& slot =
      per_session_[mix_session_key(session) & (session_slots_ - 1)];
  if (slot.count != 0 && slot.key != session) {
    ++session_evictions_;
    slot.count = 0;
  }
  slot.key = session;
  return slot;
}

void MediaServer::save_state(Value& state) const {
  state["frames_served"] = frames_served_;
  // Exported in the historical JSON shape (session id as string -> count)
  // so snapshots cross the overhaul unchanged.  The slots come in hash
  // order, so the map sorts the entries once instead of per insertion.
  std::vector<util::ValueMap::Entry> sessions;
  for (const SessionSlot& slot : per_session_) {
    if (slot.count != 0) {
      sessions.emplace_back(std::to_string(slot.key), Value{slot.count});
    }
  }
  state["per_session"] = Value{util::ValueMap{std::move(sessions)}};
}

Status MediaServer::load_state(const Value& state) {
  if (state.contains("frames_served")) {
    frames_served_ = state.at("frames_served").as_int();
  }
  if (state.at("per_session").is_map()) {
    per_session_.clear();
    for (const auto& [key, count] : state.at("per_session").as_map()) {
      if (!count.is_int()) continue;
      SessionSlot& slot = slot_for(std::stoll(key));
      slot.count = count.as_int();
    }
  }
  return Status::success();
}

void register_media_components(component::ComponentRegistry& registry) {
  registry.register_class<FrameExtractor>("FrameExtractor");
  registry.register_class<VideoEncoder>("VideoEncoder");
  registry.register_class<Transmitter>("Transmitter");
  registry.register_class<MediaServer>("MediaServer");
}

}  // namespace aars::telecom
