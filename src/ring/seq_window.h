// Sliding-window replay fence for redundancy messages.
#ifndef RING_SRC_RING_SEQ_WINDOW_H_
#define RING_SRC_RING_SEQ_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace ring {

// Records which write sequence numbers have been applied so chaos-duplicated
// backup messages execute at most once. Once more than kWindow sequences are
// held, the smallest is dropped and every sequence at or below it reads as
// already seen (the window only slides forward past applied entries).
//
// Held sequences are kept as sorted, disjoint, non-adjacent [lo, hi) runs.
// A coordinator numbers a store's writes consecutively, so an in-order
// stream is one 16-byte run instead of kWindow tree nodes; gaps and
// reorders cost one run each until they fill in.
class SeqWindow {
 public:
  static constexpr size_t kWindow = 4096;

  // True exactly once per sequence number.
  bool MarkOnce(uint64_t seq) {
    if (seq < min_retained_) {
      return false;
    }
    // First run ending above seq: seq is held iff that run starts at or
    // below it.
    auto next = std::upper_bound(
        runs_.begin(), runs_.end(), seq,
        [](uint64_t s, const Run& r) { return s < r.hi; });
    if (next != runs_.end() && next->lo <= seq) {
      return false;
    }
    const bool joins_prev = next != runs_.begin() && std::prev(next)->hi == seq;
    const bool joins_next = next != runs_.end() && next->lo == seq + 1;
    if (joins_prev && joins_next) {
      std::prev(next)->hi = next->hi;
      runs_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->hi = seq + 1;
    } else if (joins_next) {
      next->lo = seq;
    } else {
      runs_.insert(next, Run{seq, seq + 1});
    }
    if (++count_ > kWindow) {
      Run& oldest = runs_.front();
      min_retained_ = oldest.lo + 1;
      if (++oldest.lo == oldest.hi) {
        runs_.erase(runs_.begin());
      }
      --count_;
    }
    return true;
  }

  // Sequences below this read as seen without being held.
  // ring-lint: ok(test-only-api) MarkOnce's compaction
  uint64_t min_retained() const { return min_retained_; }
  // Sequences currently held (at most kWindow).
  size_t size() const { return count_; }
  // The highest sequence marked so far, 0 before the first (sequences start
  // at 1). A store that takes over the numbering continues above it.
  uint64_t high() const { return runs_.empty() ? 0 : runs_.back().hi - 1; }
  // Runs currently held: the structure's memory is O(runs()).
  // ring-lint: ok(test-only-api) MarkOnce's compaction
  size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    uint64_t lo;
    uint64_t hi;
  };
  std::vector<Run> runs_;
  size_t count_ = 0;
  uint64_t min_retained_ = 0;
};

}  // namespace ring

#endif  // RING_SRC_RING_SEQ_WINDOW_H_
