// Space-bounded per-key access-temperature tracking for the adaptive
// resilience manager (the multi-temperature use case of paper §2).
//
// Two layers:
//  - a count-min sketch absorbs the raw op stream: O(width * depth) counters
//    total, O(depth) work per access, never underestimates a key's count;
//  - a bounded map of "tracked" keys carries an EWMA temperature across
//    epochs (ops per epoch, exponentially decayed), folded from the sketch
//    when the manager rolls an epoch.
//
// The tracker is pure bookkeeping: it never touches the simulator and costs
// nothing in simulated time, matching how a real control plane would sample
// off the critical path.
#ifndef RING_SRC_POLICY_ACCESS_TRACKER_H_
#define RING_SRC_POLICY_ACCESS_TRACKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ring::policy {

// Count-min sketch over string keys. Standard guarantees: Estimate() is
// never below the true count, and with width w the overestimate is bounded
// by roughly (total inserts) / w per row, taking the minimum over `depth`
// independent rows.
class CountMinSketch {
 public:
  CountMinSketch(uint32_t width, uint32_t depth);

  void Add(std::string_view key, uint64_t count = 1);
  uint64_t Estimate(std::string_view key) const;

  // Total count added since the last Clear (for error-bound reasoning).
  uint64_t total() const { return total_; }
  uint32_t width() const { return width_; }
  uint32_t depth() const { return depth_; }

  void Clear();

 private:
  // Row hash: one 64-bit key hash remixed with a per-row constant.
  uint64_t RowHash(std::string_view key, uint32_t row) const;

  uint32_t width_;
  uint32_t depth_;
  uint64_t total_ = 0;
  std::vector<uint64_t> cells_;  // depth_ rows of width_ counters
};

struct AccessTrackerOptions {
  // Bound on the tracked-key map; coldest entries are evicted at epoch end.
  size_t max_tracked_keys = 8192;
};

class AccessTracker {
 public:
  explicit AccessTracker(AccessTrackerOptions options = {});

  // Op-path hook: one access to `key` in the current epoch.
  void Record(const std::string& key);

  // Rolls the epoch: folds sketch estimates into each tracked key's EWMA,
  // decays keys that were not accessed, evicts down to the size bound, and
  // resets the sketch for the next epoch.
  void EndEpoch();

  // EWMA temperature in ops/epoch (0 for unknown keys).
  double Temperature(const std::string& key) const;

  void ForEachTracked(
      const std::function<void(const std::string&, double)>& fn) const;

  size_t tracked() const { return temperature_.size(); }

 private:
  AccessTrackerOptions options_;
  CountMinSketch sketch_;
  // Keys seen this epoch (exact set; bounded by eviction at epoch end).
  std::unordered_map<std::string, bool> seen_this_epoch_;
  std::unordered_map<std::string, double> temperature_;
};

}  // namespace ring::policy

#endif  // RING_SRC_POLICY_ACCESS_TRACKER_H_
