// Error model of the runtime.
//
// Two kinds of failures exist in an adaptive system:
//  * programming/configuration errors (invalid ADL, binding to a missing
//    port, ...) -> reported as `Error` values through `Result<T>` so that a
//    management layer (RAML) can observe and react to them;
//  * violated invariants inside the runtime itself -> exceptions
//    (`InvariantViolation`), which abort the affected operation.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace aars::util {

/// Machine-inspectable error categories. RAML rules can match on these.
enum class ErrorCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kIncompatible,       // interface/protocol mismatch
  kNotQuiescent,       // reconfiguration attempted on an active region
  kResourceExhausted,  // capacity, bandwidth, queue overflow
  kUnavailable,        // target component passivated/removed
  kTimeout,
  kCycleDetected,      // rule graph / calling tree cycle
  kParseError,         // ADL front-end
  kStateTransfer,      // snapshot/restore failure
  kRejected,           // admission/permission denied
  kOverloaded,         // load shed: backpressure, breaker open, queue cap
  kVerificationFailed, // static plan verification rejected the change
  kInternal,
};

/// Human-readable name for an error code (stable, used in logs and tests).
constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kIncompatible: return "incompatible";
    case ErrorCode::kNotQuiescent: return "not_quiescent";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCycleDetected: return "cycle_detected";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kStateTransfer: return "state_transfer";
    case ErrorCode::kRejected: return "rejected";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kVerificationFailed: return "verification_failed";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// A failure description: code + context message.
class Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    return std::string(util::to_string(code_)) + ": " + message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Minimal expected-like result type (the toolchain's std::expected is not
/// assumed). Holds either a value or an Error.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT implicit
  Result(Error error) : data_(std::move(error)) {}      // NOLINT implicit
  Result(ErrorCode code, std::string message)
      : data_(Error{code, std::move(message)}) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  /// Precondition: ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  /// Precondition: !ok().
  const Error& error() const { return std::get<Error>(data_); }
  ErrorCode code() const {
    return ok() ? ErrorCode::kOk : error().code();
  }

  const T& value_or(const T& fallback) const {
    return ok() ? value() : fallback;
  }

 private:
  std::variant<T, Error> data_;
};

/// Result with no payload: success or an Error.
class Status {
 public:
  Status() = default;  // success
  Status(Error error) : error_(std::move(error)) {}  // NOLINT implicit
  Status(ErrorCode code, std::string message)
      : error_(Error{code, std::move(message)}) {}

  static Status success() { return Status{}; }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Precondition: !ok().
  const Error& error() const { return *error_; }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : error_->code(); }
  std::string to_string() const { return ok() ? "ok" : error_->to_string(); }

 private:
  std::optional<Error> error_;
};

}  // namespace aars::util

namespace aars {
// Public spellings of the error model: mutation APIs across the repo
// (reconfig engine, runtime builders) report `aars::Status` — a
// code + message pair — instead of bool/sentinel returns.
using util::Error;
using util::ErrorCode;
using util::Status;
template <typename T>
using Result = util::Result<T>;
}  // namespace aars

namespace aars::util {

/// Thrown when an internal invariant of the runtime is broken. Indicates a
/// bug in the runtime, never a recoverable configuration error.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error("invariant violation: " + what) {}
};

/// Checks a runtime invariant; throws InvariantViolation when broken.
inline void require(bool condition, const char* what) {
  if (!condition) throw InvariantViolation(what);
}

}  // namespace aars::util
