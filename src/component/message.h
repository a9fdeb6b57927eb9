// Messages exchanged between components.
//
// Filters, injectors and connectors operate on messages as first-class
// values ("filters are defined as declarative message manipulators", §2), so
// Message is a plain value type with an open `headers` map for metadata
// added by filters, middleware and users.  The runtime's own control data
// (routing, work scale, traffic class, retry, deadline and breaker stamps)
// rides a typed envelope, `Message::control`, beside it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.h"
#include "util/symbol.h"
#include "util/time.h"
#include "util/value.h"

namespace aars::component {

using util::ComponentId;
using util::MessageId;
using util::SimTime;
using util::Value;

enum class MessageKind {
  kRequest,   // expects a response
  kResponse,  // answer to a request (correlation set)
  kEvent,     // one-way notification
  kControl,   // runtime/meta-level traffic (quiescence, reconfiguration)
};

constexpr const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRequest: return "request";
    case MessageKind::kResponse: return "response";
    case MessageKind::kEvent: return "event";
    case MessageKind::kControl: return "control";
  }
  return "?";
}

/// Traffic classes for admission control and load shedding. Under overload
/// the runtime sheds lower classes first; kControl (reconfiguration and
/// quiescence traffic) is never shed, so the meta-level can always act.
enum class Priority : std::uint8_t {
  kBestEffort = 0,
  kNormal = 1,
  kHigh = 2,
  kControl = 3,
};

constexpr const char* to_string(Priority p) {
  switch (p) {
    case Priority::kBestEffort: return "best_effort";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
    case Priority::kControl: return "control";
  }
  return "?";
}

/// The runtime's control data on a message, one typed field per datum.
/// Writers are the interceptors that stamp it (fault::RetryInterceptor,
/// overload's breaker, adapt::Injector) and the callers of invoke_async /
/// send_event; readers are the relay, the retry driver, the deadline and
/// Connector::select_target.  A default Control is unset throughout.  Every
/// member has an initializer, so a designated initializer may name only
/// what it sets, as in `Control{.priority = Priority::kHigh}` (GCC's
/// -Wextra flags omitted members that have none).
///
/// Bandwidth: each set field is charged as a `headers` entry under its key
/// (the table in byte_size()), so simulated transfer times do not depend
/// on whether a datum rides here or in `headers`.
struct Control {
  /// Forced provider, bypassing the connector's routing; set when valid.
  ComponentId route_to{};
  /// Providers a failed-over retry avoids, one entry per failed attempt
  /// (repeats kept); set when non-empty.
  std::vector<ComponentId> route_avoid{};
  /// Multiplies the provider's operation cost (quality-dependent work).
  std::optional<double> work_scale{};
  /// Whole-call deadline; set when > 0.
  util::Duration timeout = 0;
  /// Exponential backoff between retries; charged with retry_budget.
  util::Duration backoff_base = 1000;
  util::Duration backoff_cap = 100000;
  /// Retries allowed after the first attempt; the retry stamp sets it with
  /// the two backoff fields.
  std::optional<std::int32_t> retry_budget{};
  /// Re-relays so far; set when > 0.
  std::int32_t retry_attempt = 0;
  /// Traffic class; see message_priority() for the unset case.
  std::optional<Priority> priority{};
  /// Route retries away from the provider that failed.
  bool failover : 1 = false;
  /// The deadline is running (retries share the first attempt's).
  bool timeout_armed : 1 = false;
  /// Breaker marks for its own after(): short-circuited, half-open probe,
  /// exempt control traffic.
  bool breaker_rejected : 1 = false;
  bool breaker_probe : 1 = false;
  bool breaker_exempt : 1 = false;

  /// Bytes the set fields cost as header-map entries (key plus value), not
  /// counting the map's own 8 bytes; 0 when nothing is set.
  std::size_t byte_size() const;
};

/// A single message. Value semantics: interceptors copy & transform freely.
/// Operation and port names are interned (util::Symbol), so copying a
/// message through an interceptor chain copies two pointers, not strings;
/// combined with copy-on-write Value payloads a Message copy touches the
/// heap only for a failover retry's control.route_avoid list.
struct Message {
  MessageId id;
  MessageKind kind = MessageKind::kRequest;
  util::Symbol operation;
  Value payload;
  Value headers;  // metadata added by filters, middleware and users
  Control control;

  ComponentId sender;
  ComponentId target;
  util::Symbol target_port;  // required-port name on the sender side

  std::uint64_t sequence = 0;     // per-channel sequence number
  MessageId correlation;          // for responses: the request id
  SimTime sent_at = 0;
  SimTime delivered_at = 0;

  /// Payload + metadata footprint, used to charge network bandwidth.  The
  /// control envelope charges as entries of the header map: when `headers`
  /// is null, a set field pays the map's 8 bytes in place of null's 1.
  std::size_t byte_size() const {
    const std::size_t control_bytes = control.byte_size();
    const std::size_t metadata = control_bytes > 0 && headers.is_null()
                                     ? 8 + control_bytes
                                     : headers.byte_size() + control_bytes;
    return 64 + operation.size() + payload.byte_size() + metadata;
  }
};

/// Builds a response carrying `result` for `request`.
Message make_response(const Message& request, Value result);

/// Byte footprint of the message make_response(request, result) would
/// produce, without materialising it — relay paths charge the response trip
/// before the payload exists. Keep in sync with make_response() and
/// Message::byte_size() (a response starts with empty headers: 1 byte).
inline std::size_t response_byte_size(const Message& request,
                                      const Value& result) {
  return 64 + request.operation.size() + result.byte_size() + 1;
}

/// Builds an error response; the payload carries {"error": code_name,
/// "message": text} so failures can cross component boundaries as data.
Message make_error_response(const Message& request, const std::string& code,
                            const std::string& text);

/// True when the message is an error response built by make_error_response.
bool is_error_response(const Message& message);

/// Effective traffic class of a message: control.priority when set,
/// kControl for control-kind messages, kNormal otherwise.
Priority message_priority(const Message& message);

}  // namespace aars::component
