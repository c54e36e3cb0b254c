// Status / Result error model (Arrow/RocksDB idiom): recoverable errors are
// returned as values, never thrown across library boundaries.

#ifndef FUZZYDB_COMMON_STATUS_H_
#define FUZZYDB_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace fuzzydb {

/// Machine-readable error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kAlreadyExists,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kCancelled,
  kDeadlineExceeded,
  kDataLoss,
};

/// Return value describing success or a recoverable failure.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// human-readable message. A Status is one pointer (Arrow's layout): OK is
/// null, and an error owns its code and message on the heap, deep-copied on
/// copy. OK, the common case, allocates nothing, and every Result or result
/// struct that holds a Status pays one pointer for it.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// An error with `code` and `message`; `StatusCode::kOk` gives a plain OK
  /// status and drops the message.
  Status(StatusCode code, std::string message);

  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_)
                            : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;
  ~Status() = default;

  /// Factory for the OK status.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// Unrecoverable corruption of stored data (bad checksum, short read of a
  /// region the header promised): the bytes on disk do not say what their
  /// header claims. Distinct from InvalidArgument (a well-formed request for
  /// something that is not a column file at all).
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// The error message; empty for OK.
  const std::string& message() const;

  /// "OK" or "<code>: <message>", for logs and test failure output.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;  // null iff OK
};

/// Either a value of type T or an error Status; analogous to arrow::Result.
template <typename T>
class Result {
 public:
  /// Implicit from a value: `return some_t;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status out of the enclosing function.
#define FUZZYDB_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::fuzzydb::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (false)

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_STATUS_H_
