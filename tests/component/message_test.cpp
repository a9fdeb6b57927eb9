#include "component/message.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace aars::component {
namespace {

using util::ComponentId;
using util::MessageId;
using util::Value;

Message sample_request() {
  Message m;
  m.id = MessageId{42};
  m.kind = MessageKind::kRequest;
  m.operation = "compute";
  m.payload = Value::object({{"x", 1}});
  m.sender = ComponentId{1};
  m.target = ComponentId{2};
  m.sequence = 7;
  return m;
}

TEST(MessageTest, KindNames) {
  EXPECT_STREQ(to_string(MessageKind::kRequest), "request");
  EXPECT_STREQ(to_string(MessageKind::kResponse), "response");
  EXPECT_STREQ(to_string(MessageKind::kEvent), "event");
  EXPECT_STREQ(to_string(MessageKind::kControl), "control");
}

TEST(MessageTest, ResponseSwapsEndpointsAndCorrelates) {
  const Message request = sample_request();
  const Message response = make_response(request, Value{99});
  EXPECT_EQ(response.kind, MessageKind::kResponse);
  EXPECT_EQ(response.sender, request.target);
  EXPECT_EQ(response.target, request.sender);
  EXPECT_EQ(response.correlation, request.id);
  EXPECT_EQ(response.operation, request.operation);
  EXPECT_EQ(response.payload.as_int(), 99);
}

TEST(MessageTest, ErrorResponseIsRecognisable) {
  const Message request = sample_request();
  const Message err = make_error_response(request, "timeout", "too slow");
  EXPECT_TRUE(is_error_response(err));
  EXPECT_EQ(err.payload.at("error").as_string(), "timeout");
  EXPECT_EQ(err.payload.at("message").as_string(), "too slow");
}

TEST(MessageTest, PlainResponseIsNotError) {
  const Message request = sample_request();
  const Message ok = make_response(request, Value::object({{"result", 1}}));
  EXPECT_FALSE(is_error_response(ok));
  EXPECT_FALSE(is_error_response(sample_request()));
}

TEST(MessageTest, ByteSizeIncludesPayloadAndHeaders) {
  Message m = sample_request();
  const std::size_t base = m.byte_size();
  m.payload = Value::object({{"blob", std::string(5000, 'x')}});
  EXPECT_GT(m.byte_size(), base + 4000);
  m.headers["meta"] = std::string(1000, 'y');
  EXPECT_GT(m.byte_size(), base + 5000);
}

// The control envelope charges the bandwidth of the header map the runtime
// used to carry the same data in: each row pairs a field with that map.
struct ControlCase {
  const char* field;
  std::function<void(Control&)> set;
  Value header_map;
};

std::vector<ControlCase> control_cases() {
  return {
      {"route_to", [](Control& c) { c.route_to = ComponentId{77}; },
       Value::object({{"__route_to", 77}})},
      {"route_avoid",
       [](Control& c) {
         c.route_avoid = {ComponentId{1}, ComponentId{2}, ComponentId{1}};
       },
       Value::object({{"__route_avoid", Value::list({1, 2, 1})}})},
      {"work_scale", [](Control& c) { c.work_scale = 1.0; },
       Value::object({{"__work_scale", 1.0}})},
      {"priority", [](Control& c) { c.priority = Priority::kNormal; },
       Value::object({{"__priority", 1}})},
      {"retry_budget",
       [](Control& c) {
         c.retry_budget = 0;
         c.backoff_base = 500;
         c.backoff_cap = 3000;
       },
       Value::object({{"__retry_budget", 0},
                      {"__backoff_base_us", 500},
                      {"__backoff_cap_us", 3000}})},
      {"retry_attempt", [](Control& c) { c.retry_attempt = 2; },
       Value::object({{"__retry_attempt", 2}})},
      {"timeout", [](Control& c) { c.timeout = 20000; },
       Value::object({{"__timeout_us", 20000}})},
      {"timeout_armed", [](Control& c) { c.timeout_armed = true; },
       Value::object({{"__timeout_armed", true}})},
      {"failover", [](Control& c) { c.failover = true; },
       Value::object({{"__failover", true}})},
      {"breaker_rejected", [](Control& c) { c.breaker_rejected = true; },
       Value::object({{"__breaker_rejected", true}})},
      {"breaker_probe", [](Control& c) { c.breaker_probe = true; },
       Value::object({{"__breaker_probe", true}})},
      {"breaker_exempt", [](Control& c) { c.breaker_exempt = true; },
       Value::object({{"__breaker_exempt", true}})},
  };
}

TEST(MessageTest, EachControlFieldChargesItsHeaderEntry) {
  const Message plain = sample_request();
  EXPECT_EQ(plain.byte_size(),
            64 + plain.operation.size() + plain.payload.byte_size() + 1);
  for (const ControlCase& c : control_cases()) {
    Message typed = sample_request();
    c.set(typed.control);
    Message mapped = sample_request();
    mapped.headers = c.header_map;
    EXPECT_EQ(typed.byte_size(), mapped.byte_size()) << c.field;
  }
}

TEST(MessageTest, AllControlFieldsChargeOneHeaderMap) {
  Message typed = sample_request();
  for (const ControlCase& c : control_cases()) c.set(typed.control);
  Message mapped = sample_request();
  mapped.headers = Value::object({{"__route_to", 77},
                                  {"__route_avoid", Value::list({1, 2, 1})},
                                  {"__work_scale", 1.0},
                                  {"__priority", 1},
                                  {"__retry_budget", 0},
                                  {"__backoff_base_us", 500},
                                  {"__backoff_cap_us", 3000},
                                  {"__retry_attempt", 2},
                                  {"__timeout_us", 20000},
                                  {"__timeout_armed", true},
                                  {"__failover", true},
                                  {"__breaker_rejected", true},
                                  {"__breaker_probe", true},
                                  {"__breaker_exempt", true}});
  EXPECT_EQ(typed.byte_size(), mapped.byte_size());
}

TEST(MessageTest, ControlFieldBesideAUserHeaderPaysNoSecondMap) {
  for (const ControlCase& c : control_cases()) {
    Message typed = sample_request();
    typed.headers = Value::object({{"tag", 7}});
    c.set(typed.control);
    Message mapped = sample_request();
    mapped.headers = c.header_map;
    mapped.headers["tag"] = 7;
    EXPECT_EQ(typed.byte_size(), mapped.byte_size()) << c.field;
  }
}

TEST(MessageTest, CopyIsIndependent) {
  Message a = sample_request();
  Message b = a;
  b.payload["x"] = 2;
  EXPECT_EQ(a.payload.at("x").as_int(), 1);
  EXPECT_EQ(b.payload.at("x").as_int(), 2);
}

}  // namespace
}  // namespace aars::component
