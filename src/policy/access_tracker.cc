#include "src/policy/access_tracker.h"

#include <algorithm>

#include "src/common/hash.h"

namespace ring::policy {
namespace {

// Count-min sketch shape, the temperature below which a tracked entry is
// dropped, and the EWMA smoothing weight:
// temperature' = (1 - alpha) * temperature + alpha * count.
constexpr uint32_t kSketchWidth = 1024;
constexpr uint32_t kSketchDepth = 4;
constexpr double kDropBelow = 0.01;
constexpr double kEwmaAlpha = 0.5;

}  // namespace

CountMinSketch::CountMinSketch(uint32_t width, uint32_t depth)
    : width_(std::max(width, 1u)),
      depth_(std::max(depth, 1u)),
      cells_(static_cast<size_t>(width_) * depth_, 0) {}

uint64_t CountMinSketch::RowHash(std::string_view key, uint32_t row) const {
  // splitmix64 over (key hash ^ row constant): independent-enough row hashes
  // from one key hash, deterministic across runs.
  uint64_t z = HashKey(key) ^ (0x9E3779B97F4A7C15ULL * (row + 1));
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

void CountMinSketch::Add(std::string_view key, uint64_t count) {
  for (uint32_t row = 0; row < depth_; ++row) {
    cells_[static_cast<size_t>(row) * width_ + RowHash(key, row) % width_] +=
        count;
  }
  total_ += count;
}

uint64_t CountMinSketch::Estimate(std::string_view key) const {
  uint64_t est = UINT64_MAX;
  for (uint32_t row = 0; row < depth_; ++row) {
    est = std::min(
        est,
        cells_[static_cast<size_t>(row) * width_ + RowHash(key, row) % width_]);
  }
  return est;
}

void CountMinSketch::Clear() {
  std::fill(cells_.begin(), cells_.end(), 0);
  total_ = 0;
}

AccessTracker::AccessTracker(AccessTrackerOptions options)
    : options_(options),
      sketch_(kSketchWidth, kSketchDepth) {}

void AccessTracker::Record(const std::string& key) {
  sketch_.Add(key);
  seen_this_epoch_[key] = true;
}

void AccessTracker::EndEpoch() {
  const double a = kEwmaAlpha;
  // Fold this epoch's (sketch-estimated) counts into the EWMAs. Keys seen
  // this epoch but not yet tracked enter at their full epoch count so a new
  // hotspot heats up in one epoch.
  // Reviewed: per-key fold; each EWMA update is independent of visit order.
  // ring-lint: ok(unordered-iter)
  for (const auto& [key, unused] : seen_this_epoch_) {
    const double count = static_cast<double>(sketch_.Estimate(key));
    auto it = temperature_.find(key);
    if (it == temperature_.end()) {
      temperature_[key] = count;
    } else {
      it->second = (1.0 - a) * it->second + a * count;
    }
  }
  // Decay tracked keys that went quiet; drop the ones that froze.
  // ring-lint: ok(unordered-iter) per-key decay/erase; order-independent.
  for (auto it = temperature_.begin(); it != temperature_.end();) {
    if (seen_this_epoch_.count(it->first) == 0) {
      it->second *= (1.0 - a);
    }
    if (it->second < kDropBelow) {
      it = temperature_.erase(it);
    } else {
      ++it;
    }
  }
  // Enforce the space bound: evict the coldest entries.
  if (temperature_.size() > options_.max_tracked_keys) {
    std::vector<std::pair<double, const std::string*>> by_temp;
    by_temp.reserve(temperature_.size());
    // Reviewed: victims are selected by temperature, and exact EWMA ties
    // between distinct keys do not occur in practice.
    // ring-lint: ok(unordered-iter)
    for (const auto& [key, temp] : temperature_) {
      by_temp.emplace_back(temp, &key);
    }
    const size_t excess = temperature_.size() - options_.max_tracked_keys;
    std::nth_element(by_temp.begin(), by_temp.begin() + excess, by_temp.end());
    std::vector<std::string> victims;
    victims.reserve(excess);
    for (size_t i = 0; i < excess; ++i) {
      victims.push_back(*by_temp[i].second);
    }
    for (const auto& v : victims) {
      temperature_.erase(v);
    }
  }
  seen_this_epoch_.clear();
  sketch_.Clear();
}

double AccessTracker::Temperature(const std::string& key) const {
  auto it = temperature_.find(key);
  return it == temperature_.end() ? 0.0 : it->second;
}

void AccessTracker::ForEachTracked(
    const std::function<void(const std::string&, double)>& fn) const {
  // Reviewed: callers rank candidates by temperature before acting (see
  // autotier.cc), so visit order is not sim-visible.
  // ring-lint: ok(unordered-iter)
  for (const auto& [key, temp] : temperature_) {
    fn(key, temp);
  }
}

}  // namespace ring::policy
