#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/obs/timeseries.h"

namespace ring::obs {

const char* OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kNone:
      return "-";
    case OpKind::kPut:
      return "put";
    case OpKind::kGet:
      return "get";
    case OpKind::kMove:
      return "move";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kAdmin:
      return "admin";
    case OpKind::kRecovery:
      return "recovery";
  }
  return "?";
}

int Histogram::BucketOf(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  // Bucket b >= 1 holds [2^(b-1), 2^b - 1]: b = floor(log2(value)) + 1.
  return 64 - __builtin_clzll(value);
}

uint64_t Histogram::BucketLowerBound(int b) {
  if (b <= 0) {
    return 0;
  }
  return 1ULL << (b - 1);
}

uint64_t Histogram::BucketMidpoint(int b) {
  if (b <= 0) {
    return 0;
  }
  const double lo = static_cast<double>(BucketLowerBound(b));
  const double hi = 2.0 * lo - 1.0;  // inclusive upper bound
  return static_cast<uint64_t>(std::sqrt(lo * hi));
}

void Histogram::Observe(uint64_t value) {
  ++buckets_[BucketOf(value)];
  sum_ += value;
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
  ++count_;
}

uint64_t Histogram::ApproxPercentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const uint64_t rank = static_cast<uint64_t>(
      clamped / 100.0 * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return BucketMidpoint(b);
    }
  }
  return max_;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  sum_ += other.sum_;
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  count_ += other.count_;
}

void Histogram::Clear() {
  std::fill(std::begin(buckets_), std::end(buckets_), 0);
  count_ = sum_ = min_ = max_ = 0;
}

uint64_t Metrics::CounterValue(const char* name, uint32_t node,
                               uint32_t memgest, OpKind op) const {
  const auto it = counters_.find(MetricKey{name, node, memgest, op});
  return it == counters_.end() ? 0 : it->second;
}

uint64_t Metrics::CounterTotal(const char* name) const {
  uint64_t total = 0;
  for (const auto& [key, value] : counters_) {
    if (std::strcmp(key.name, name) == 0) {
      total += value;
    }
  }
  return total;
}

namespace {

std::string KeyLabel(const MetricKey& key) {
  std::ostringstream os;
  os << key.name;
  bool brack = false;
  auto open = [&] {
    os << (brack ? "," : "{");
    brack = true;
  };
  if (key.node != kNoNode) {
    open();
    os << "node=" << key.node;
  }
  if (key.memgest != kNoMemgest) {
    open();
    os << "memgest=" << key.memgest;
  }
  if (key.op != OpKind::kNone) {
    open();
    os << "op=" << OpKindName(key.op);
  }
  if (brack) {
    os << "}";
  }
  return os.str();
}

}  // namespace

std::string Metrics::Summary() const {
  std::ostringstream os;
  char line[256];
  if (!counters_.empty()) {
    os << "counters:\n";
    for (const auto& [key, value] : counters_) {
      std::snprintf(line, sizeof(line), "  %-48s %20" PRIu64 "\n",
                    KeyLabel(key).c_str(), value);
      os << line;
    }
  }
  if (!gauges_.empty()) {
    os << "gauges:\n";
    for (const auto& [key, value] : gauges_) {
      std::snprintf(line, sizeof(line), "  %-48s %20" PRId64 "\n",
                    KeyLabel(key).c_str(), value);
      os << line;
    }
  }
  if (!histograms_.empty()) {
    os << "histograms:\n";
    for (const auto& [key, h] : histograms_) {
      std::snprintf(line, sizeof(line),
                    "  %-48s count %-10" PRIu64 " mean %-12.1f p50~%-12" PRIu64
                    " p99~%-12" PRIu64 " max %" PRIu64 "\n",
                    KeyLabel(key).c_str(), h.count(), h.Mean(),
                    h.ApproxPercentile(50), h.ApproxPercentile(99), h.max());
      os << line;
    }
  }
  if (!link_bytes_.empty()) {
    os << "link bytes (src -> dst):\n";
    for (const auto& [link, bytes] : link_bytes_) {
      std::snprintf(line, sizeof(line), "  %3u -> %-3u %20" PRIu64 "\n",
                    link.first, link.second, bytes);
      os << line;
    }
  }
  return os.str();
}

void Metrics::ForwardCounter(const MetricKey& key, uint64_t delta) {
  timeseries_->OnCounter(key, delta);
}

void Metrics::ForwardSample(const MetricKey& key, uint64_t value) {
  timeseries_->OnSample(key, value);
}

void Metrics::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  link_bytes_.clear();
}

}  // namespace ring::obs
