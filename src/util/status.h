#pragma once

/// \file status.h
/// Error propagation primitives for the tertio library.
///
/// tertio follows the Status / Result<T> idiom: fallible functions return a
/// Status (or a Result<T> carrying either a value or a Status) instead of
/// throwing. Exceptions are reserved for programming errors (violated
/// invariants), which abort via TERTIO_CHECK.

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace tertio {

/// Machine-readable category of an error.
enum class StatusCode : int8_t {
  kOk = 0,
  /// A caller-supplied argument is out of range or malformed.
  kInvalidArgument,
  /// The operation requires more memory / disk / tape space than reserved.
  kResourceExhausted,
  /// A named entity (volume, relation, bucket) does not exist.
  kNotFound,
  /// The object is in a state that does not admit the operation
  /// (e.g. reading from an unloaded tape drive).
  kFailedPrecondition,
  /// An arithmetic or accounting invariant failed inside the library.
  kInternal,
  /// The requested feature is valid but not implemented by this device or
  /// mode (e.g. read-reverse on a drive that lacks it).
  kUnimplemented,
  /// A device fault that survived the device's own bounded retries (an
  /// unrecoverable media error, a robot exchange that kept failing). Unlike
  /// the codes above this one is *retryable at a coarser granularity*: the
  /// pipeline may re-issue the failed chunk in place.
  kDeviceError,
};

/// \returns the canonical spelling of a status code, e.g. "InvalidArgument".
std::string_view StatusCodeToString(StatusCode code);

/// The result of an operation that can fail: a code plus a human-readable
/// message. A default-constructed Status is OK. Statuses are cheap to copy
/// when OK (no allocation).
///
/// [[nodiscard]]: silently dropping a Status swallows an error; call sites
/// that legitimately ignore one must say so with an explicit (void) cast
/// and a comment (tertio_lint audits those).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. An OK code with a
  /// message is normalized to a plain OK status.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeviceError(std::string msg) {
    return Status(StatusCode::kDeviceError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or a non-OK Status explaining why the value is
/// absent. Accessing the value of an errored Result aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `return 42;`.
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from an error status: `return Status::NotFound(...)`.
  /// Constructing a Result from an OK status is a programming error.
  Result(Status status) : storage_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (this->status().ok()) {
      storage_ = Status::Internal("Result constructed from OK status with no value");
    }
  }

  bool ok() const { return std::holds_alternative<T>(storage_); }

  /// The error (OK if a value is held).
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(storage_);
  }

  const T& value() const& {
    CheckHasValue();
    return std::get<T>(storage_);
  }
  T& value() & {
    CheckHasValue();
    return std::get<T>(storage_);
  }
  T&& value() && {
    CheckHasValue();
    return std::get<T>(std::move(storage_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// \returns the held value, or `fallback` if this Result is an error.
  T value_or(T fallback) const {
    if (ok()) return std::get<T>(storage_);
    return fallback;
  }

 private:
  void CheckHasValue() const;
  std::variant<Status, T> storage_;
};

namespace internal {
[[noreturn]] void DieBadResultAccess(const Status& status);
[[noreturn]] void DieCheckFailure(const char* file, int line, const char* expr,
                                  const std::string& msg);
}  // namespace internal

template <typename T>
void Result<T>::CheckHasValue() const {
  if (!ok()) internal::DieBadResultAccess(std::get<Status>(storage_));
}

}  // namespace tertio

/// Propagates a non-OK Status to the caller.
#define TERTIO_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::tertio::Status _tertio_status = (expr);        \
    if (!_tertio_status.ok()) return _tertio_status; \
  } while (false)

#define TERTIO_CONCAT_IMPL(a, b) a##b
#define TERTIO_CONCAT(a, b) TERTIO_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on error propagates the Status, on
/// success assigns the value to `lhs` (which may include a declaration).
#define TERTIO_ASSIGN_OR_RETURN(lhs, expr)                            \
  TERTIO_ASSIGN_OR_RETURN_IMPL(TERTIO_CONCAT(_tertio_res_, __LINE__), lhs, expr)
#define TERTIO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

/// Aborts with a diagnostic if `cond` is false. For invariants, not for
/// recoverable errors.
#define TERTIO_CHECK(cond, msg)                                                    \
  do {                                                                             \
    if (!(cond)) ::tertio::internal::DieCheckFailure(__FILE__, __LINE__, #cond, (msg)); \
  } while (false)
