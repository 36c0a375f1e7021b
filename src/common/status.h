#ifndef YOUTOPIA_COMMON_STATUS_H_
#define YOUTOPIA_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace youtopia {

/// Error categories used across the library. Modeled on the RocksDB /
/// LevelDB convention: library code never throws; every fallible operation
/// returns a Status (or StatusOr<T>).
enum class StatusCode {
  kOk = 0,
  kNotFound,         ///< A named table/row/object does not exist.
  kAlreadyExists,    ///< Create of an object that already exists.
  kInvalidArgument,  ///< Malformed input (bad SQL, arity mismatch, ...).
  kAborted,          ///< Transaction aborted (deadlock victim, group abort,
                     ///< widowed-prevention cascade, explicit ROLLBACK).
  kTimedOut,         ///< Lock wait or entangled-transaction timeout expired.
  kCorruption,       ///< WAL / checkpoint integrity failure.
  kInternal,         ///< Invariant violation inside the library.
  kUnimplemented,    ///< Feature intentionally out of the supported subset.
  kIOError,          ///< A file could not be opened, read or written.
};

/// Plain status object: a code plus a human-readable message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status TimedOut(std::string m) {
    return Status(StatusCode::kTimedOut, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Unimplemented(std::string m) {
    return Status(StatusCode::kUnimplemented, std::move(m));
  }
  static Status IOError(std::string m) {
    return Status(StatusCode::kIOError, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& o) const {
    return code_ == o.code_ && msg_ == o.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Name of a status code, e.g. "NotFound".
const char* StatusCodeName(StatusCode code);

}  // namespace youtopia

/// Propagates a non-OK Status to the caller.
#define YT_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::youtopia::Status _yt_st = (expr);           \
    if (!_yt_st.ok()) return _yt_st;              \
  } while (0)

#define YT_CONCAT_INNER_(a, b) a##b
#define YT_CONCAT_(a, b) YT_CONCAT_INNER_(a, b)

/// Evaluates a StatusOr<T> expression; on error returns the Status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define YT_ASSIGN_OR_RETURN(lhs, expr)                            \
  auto YT_CONCAT_(_yt_sor_, __LINE__) = (expr);                   \
  if (!YT_CONCAT_(_yt_sor_, __LINE__).ok())                       \
    return YT_CONCAT_(_yt_sor_, __LINE__).status();               \
  lhs = std::move(YT_CONCAT_(_yt_sor_, __LINE__)).value()

#endif  // YOUTOPIA_COMMON_STATUS_H_
