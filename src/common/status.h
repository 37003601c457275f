// Status: lightweight error propagation for cdbindex.
//
// Core library paths do not throw exceptions; fallible operations return a
// Status (or Result<T>, see result.h) in the style of LevelDB/RocksDB.

#ifndef CDB_COMMON_STATUS_H_
#define CDB_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace cdb {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kInvalidArgument,
  kIOError,
  kCorruption,
  kNotSupported,
  kOutOfRange,
  kInternal,
  kUnavailable,  // transient failure; the caller may try again.
};

/// Outcome of a fallible operation: an error code plus a human-readable
/// message. The OK status carries no message and is cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<category>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

/// Propagates a non-OK Status to the caller.
#define CDB_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::cdb::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

}  // namespace cdb

#endif  // CDB_COMMON_STATUS_H_
