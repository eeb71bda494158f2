// Status: lightweight error propagation without exceptions.
//
// Ring follows the os-systems convention of explicit error values on all
// fallible paths. A Status is cheap to copy in the common (OK) case; error
// statuses carry a code and a human-readable message.
#ifndef RING_SRC_COMMON_STATUS_H_
#define RING_SRC_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace ring {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kUnavailable,
  kTimeout,
  kDataLoss,
  kInternal,
};

// Returns a stable, lowercase name for a status code (e.g. "not_found").
std::string_view StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "ok" or "<code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Convenience constructors mirroring absl::*Error.
Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnavailableError(std::string message);
Status TimeoutError(std::string message);
Status DataLossError(std::string message);
Status InternalError(std::string message);

// Propagates a non-OK status to the caller.
#define RING_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::ring::Status _status = (expr);          \
    if (!_status.ok()) return _status;        \
  } while (false)

}  // namespace ring

#endif  // RING_SRC_COMMON_STATUS_H_
