// Descriptive statistics used by the benchmark harnesses: the paper reports
// medians and 90th percentiles over repeated measurements.
#ifndef RING_SRC_COMMON_STATS_H_
#define RING_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace ring {

// Accumulates samples; percentile queries sort a private copy lazily and
// cache it, so back-to-back Percentile(50)/Percentile(90) calls sort once.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_valid_ = false;
  }
  void Clear() {
    values_.clear();
    sorted_.clear();
    sorted_valid_ = false;
  }

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Percentile in [0,100] with linear interpolation. Precondition: !empty().
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  const std::vector<double>& values() const { return values_; }

 private:
  const std::vector<double>& Sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace ring

#endif  // RING_SRC_COMMON_STATS_H_
