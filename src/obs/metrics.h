// Metrics registry: counters, gauges and fixed-bucket log2 histograms keyed
// by {metric name, node, memgest, op}, plus a per-link byte matrix for the
// fabric. All recording calls are no-ops (one branch, zero allocation) while
// the registry is disabled, so instrumentation can stay compiled into every
// hot path. Values are plain simulated-time quantities; the registry never
// schedules events and never perturbs the simulation.
#ifndef RING_SRC_OBS_METRICS_H_
#define RING_SRC_OBS_METRICS_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>

namespace ring::obs {

class TimeSeries;

// Operation dimension of a metric key.
enum class OpKind : uint8_t {
  kNone = 0,
  kPut,
  kGet,
  kMove,
  kDelete,
  kAdmin,
  kRecovery,
};

const char* OpKindName(OpKind op);

// Sentinels for "dimension not applicable".
inline constexpr uint32_t kNoNode = 0xFFFFFFFFu;
inline constexpr uint32_t kNoMemgest = 0xFFFFFFFFu;

// {name, node, memgest, op}. Names must be string literals (or otherwise
// outlive the registry); ordering compares the characters, not the pointer,
// so equal literals from different translation units collapse into one key.
struct MetricKey {
  const char* name = "";
  uint32_t node = kNoNode;
  uint32_t memgest = kNoMemgest;
  OpKind op = OpKind::kNone;

  bool operator<(const MetricKey& o) const {
    const int c = std::strcmp(name, o.name);
    if (c != 0) {
      return c < 0;
    }
    if (node != o.node) {
      return node < o.node;
    }
    if (memgest != o.memgest) {
      return memgest < o.memgest;
    }
    return op < o.op;
  }
};

// Fixed-bucket log2 histogram: bucket 0 holds the value 0, bucket b >= 1
// holds values in [2^(b-1), 2^b - 1]. 65 buckets cover the full uint64
// range (bucket 64 is [2^63, 2^64 - 1]), so there is no overflow bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  // Bucket index a value lands in.
  static int BucketOf(uint64_t value);
  // Smallest value belonging to bucket `b` (0 for b == 0).
  static uint64_t BucketLowerBound(int b);
  // Geometric mean of bucket `b`'s bounds (0 for b == 0), the midpoint used
  // for percentile reporting: a value v in bucket b satisfies
  // v in [2^(b-1), 2^b), so the estimate m = sqrt(lo * hi) ~ 2^(b-1)*sqrt(2)
  // is within a factor sqrt(2) of v either way — relative error <= ~41.4%,
  // half the worst case of reporting a bucket bound (factor 2).
  static uint64_t BucketMidpoint(int b);

  void Observe(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  uint64_t bucket(int b) const { return buckets_[b]; }
  // Geometric midpoint (see BucketMidpoint) of the bucket containing the
  // p-th percentile (p in [0,100]); a log2-resolution estimate accurate to
  // within a factor sqrt(2) of the true quantile's bucket value.
  uint64_t ApproxPercentile(double p) const;

  // Exact bucket/sum/count/min/max merge of another histogram.
  void MergeFrom(const Histogram& other);

  void Clear();

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

class Metrics {
 public:
  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }

  // Optional time-series sink: counter increments and histogram samples are
  // forwarded (as deltas / raw samples) after the registry update, so
  // windowed views stay correct across Clear(). The sink must outlive the
  // registry or be detached with nullptr.
  void AttachTimeSeries(TimeSeries* ts) { timeseries_ = ts; }

  // ---- recording (no-ops while disabled) ----
  void Inc(const char* name, uint64_t delta, uint32_t node = kNoNode,
           uint32_t memgest = kNoMemgest, OpKind op = OpKind::kNone) {
    if (!enabled_) {
      return;
    }
    const MetricKey key{name, node, memgest, op};
    counters_[key] += delta;
    if (timeseries_ != nullptr) {
      ForwardCounter(key, delta);
    }
  }
  void SetGauge(const char* name, int64_t value, uint32_t node = kNoNode,
                uint32_t memgest = kNoMemgest, OpKind op = OpKind::kNone) {
    if (!enabled_) {
      return;
    }
    gauges_[MetricKey{name, node, memgest, op}] = value;
  }
  void Observe(const char* name, uint64_t value, uint32_t node = kNoNode,
               uint32_t memgest = kNoMemgest, OpKind op = OpKind::kNone) {
    if (!enabled_) {
      return;
    }
    const MetricKey key{name, node, memgest, op};
    histograms_[key].Observe(value);
    if (timeseries_ != nullptr) {
      ForwardSample(key, value);
    }
  }
  // Bytes-on-wire accounting for one fabric link src -> dst.
  void CountLink(uint32_t src, uint32_t dst, uint64_t bytes) {
    if (!enabled_) {
      return;
    }
    link_bytes_[{src, dst}] += bytes;
  }

  // ---- queries ----
  uint64_t CounterValue(const char* name, uint32_t node = kNoNode,
                        uint32_t memgest = kNoMemgest,
                        OpKind op = OpKind::kNone) const;
  // Sum of a counter over every {node, memgest, op} key it was recorded
  // under (cluster-wide aggregation).
  uint64_t CounterTotal(const char* name) const;

  const std::map<MetricKey, uint64_t>& counters() const { return counters_; }
  const std::map<MetricKey, int64_t>& gauges() const { return gauges_; }
  const std::map<MetricKey, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::pair<uint32_t, uint32_t>, uint64_t>& link_bytes()
      const {
    return link_bytes_;
  }

  // Flat human-readable dump of everything recorded.
  std::string Summary() const;

  void Clear();

 private:
  // Out-of-line so this header does not need the TimeSeries definition.
  void ForwardCounter(const MetricKey& key, uint64_t delta);
  void ForwardSample(const MetricKey& key, uint64_t value);

  bool enabled_ = false;
  TimeSeries* timeseries_ = nullptr;
  std::map<MetricKey, uint64_t> counters_;
  std::map<MetricKey, int64_t> gauges_;
  std::map<MetricKey, Histogram> histograms_;
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> link_bytes_;
};

}  // namespace ring::obs

#endif  // RING_SRC_OBS_METRICS_H_
