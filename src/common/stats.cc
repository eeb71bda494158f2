#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ring {

const std::vector<double>& Samples::Sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double Samples::Percentile(double p) const {
  assert(!values_.empty());
  const std::vector<double>& sorted = Sorted();
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace ring
