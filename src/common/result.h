// Result<T>: value-or-Status, the return type of fallible functions that
// produce a value. Modeled after absl::StatusOr / std::expected.
#ifndef RING_SRC_COMMON_RESULT_H_
#define RING_SRC_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace ring {

template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or from a non-OK Status keeps call
  // sites terse: `return value;` / `return NotFoundError(...);`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  // Precondition: ok().
  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Evaluates `rexpr` (a Result<T>), returns its status on error, otherwise
// binds the value to `lhs`.
#define RING_ASSIGN_OR_RETURN(lhs, rexpr)         \
  auto RING_CONCAT_(result_, __LINE__) = (rexpr); \
  if (!RING_CONCAT_(result_, __LINE__).ok())      \
    return RING_CONCAT_(result_, __LINE__).status(); \
  lhs = std::move(RING_CONCAT_(result_, __LINE__)).value()

#define RING_CONCAT_INNER_(a, b) a##b
#define RING_CONCAT_(a, b) RING_CONCAT_INNER_(a, b)

}  // namespace ring

#endif  // RING_SRC_COMMON_RESULT_H_
