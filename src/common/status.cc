#include "src/common/status.h"

namespace ring {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kDataLoss:
      return "data_loss";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "ok";
  }
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status TimeoutError(std::string message) {
  return Status(StatusCode::kTimeout, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

}  // namespace ring
