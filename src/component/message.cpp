#include "component/message.h"

#include <string_view>

namespace aars::component {

Message make_response(const Message& request, Value result) {
  Message response;
  response.kind = MessageKind::kResponse;
  response.operation = request.operation;
  response.payload = std::move(result);
  response.sender = request.target;
  response.target = request.sender;
  response.correlation = request.id;
  return response;
}

Message make_error_response(const Message& request, const std::string& code,
                            const std::string& text) {
  Message response = make_response(
      request, Value::object({{"error", code}, {"message", text}}));
  return response;
}

std::size_t Control::byte_size() const {
  // Each set field charges as a header-map entry under its key: key bytes
  // plus the value's util::Value size (8 for an int or double, 1 for a
  // bool, 8 + 8 per entry for the avoid list).
  std::size_t bytes = 0;
  const auto entry = [&bytes](std::string_view key, std::size_t value) {
    bytes += key.size() + value;
  };
  if (route_to.valid()) entry("__route_to", 8);
  if (!route_avoid.empty()) {
    entry("__route_avoid", 8 + 8 * route_avoid.size());
  }
  if (work_scale) entry("__work_scale", 8);
  if (priority) entry("__priority", 8);
  if (retry_budget) {
    entry("__retry_budget", 8);
    entry("__backoff_base_us", 8);
    entry("__backoff_cap_us", 8);
  }
  if (retry_attempt > 0) entry("__retry_attempt", 8);
  if (timeout > 0) entry("__timeout_us", 8);
  if (timeout_armed) entry("__timeout_armed", 1);
  if (failover) entry("__failover", 1);
  if (breaker_rejected) entry("__breaker_rejected", 1);
  if (breaker_probe) entry("__breaker_probe", 1);
  if (breaker_exempt) entry("__breaker_exempt", 1);
  return bytes;
}

Priority message_priority(const Message& message) {
  if (message.control.priority) return *message.control.priority;
  return message.kind == MessageKind::kControl ? Priority::kControl
                                               : Priority::kNormal;
}

bool is_error_response(const Message& message) {
  return message.kind == MessageKind::kResponse &&
         message.payload.contains("error");
}

}  // namespace aars::component
