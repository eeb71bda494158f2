// Span tracer over simulated time.
//
// Records {start, end, category, node, op_id} spans (zero allocation and a
// single branch while disabled) and exports them as
//   - Chrome trace_event JSON (loadable in chrome://tracing / Perfetto),
//   - a flat text summary per {span name, category},
//   - exact per-operation latency breakdowns: every nanosecond of an op span
//     is attributed to exactly one of {coding, cpu, network, queueing, wait}
//     by a priority sweep over the spans tagged with the same op_id, so the
//     five buckets always sum to the op's end-to-end latency.
//
// The tracer only records; it never schedules events, so enabling it cannot
// perturb simulated time.
#ifndef RING_SRC_OBS_TRACE_H_
#define RING_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ring::obs {

enum class Category : uint8_t {
  kOp = 0,    // end-to-end client operation (put/get/move/delete)
  kNetwork,   // wire serialization + flight
  kCpu,       // per-node single-threaded CPU busy time
  kCoding,    // GF/RS/SRS encode, delta, decode work (subset of CPU time)
  kQueue,     // CPU run-queue or NIC egress wait
  kQuorum,    // coordinator waiting for replication/parity acknowledgments
  kRecovery,  // promotion, parity rebuild, on-demand block recovery
  kFault,     // injected fault events (chaos schedules, src/fault)
  kOther,     // markers (write-ahead, commit) and uncategorized work
};

const char* CategoryName(Category c);

struct Span {
  uint64_t start = 0;  // simulated ns
  uint64_t end = 0;    // simulated ns, >= start
  uint64_t op_id = 0;  // 0 = not attributable to one client operation
  uint32_t node = 0;   // fabric node the span executed on
  Category category = Category::kOther;
  const char* name = "";  // static string
};

// Exact decomposition of one op span; the five buckets partition
// [start, end], so they always sum to end - start.
struct OpBreakdown {
  const char* name = "";
  uint64_t op_id = 0;
  uint32_t node = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t coding_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t network_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t wait_ns = 0;  // quorum waits, remote-only intervals, idle gaps
  uint64_t total_ns() const { return end - start; }
};

// Mean of a set of breakdowns (optionally filtered by op-span name).
struct BreakdownMean {
  uint64_t ops = 0;
  double coding_us = 0;
  double cpu_us = 0;
  double network_us = 0;
  double queue_us = 0;
  double wait_us = 0;
  double total_us = 0;
};
BreakdownMean MeanBreakdown(const std::vector<OpBreakdown>& breakdowns,
                            const char* name_filter = nullptr);

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }

  // Record a complete span. `name` must be a string literal (or otherwise
  // outlive the tracer). No-op while disabled or once `capacity` spans have
  // been recorded (dropped spans are counted).
  void Record(const char* name, Category category, uint32_t node,
              uint64_t op_id, uint64_t start, uint64_t end) {
    if (!enabled_) {
      return;
    }
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{start, end < start ? start : end, op_id, node,
                          category, name});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  // ring-lint: ok(test-only-api) capacity seam for Record's drop count
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  // Chrome trace_event JSON ("ts" in microseconds). Every span becomes a
  // balanced B/E pair on thread `node`; op spans carry their breakdown in
  // the B event's args, in nanoseconds.
  std::string ChromeTraceJson() const;
  // Writes ChromeTraceJson() to `path`; returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  // Per {name, category} totals, sorted by total time.
  std::string Summary() const;

  // One breakdown per recorded op-category span.
  std::vector<OpBreakdown> OpBreakdowns() const;

  void Clear() {
    spans_.clear();
    dropped_ = 0;
  }

 private:
  bool enabled_ = false;
  size_t capacity_ = 4u << 20;  // ~4M spans; bounds bench memory use
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace ring::obs

#endif  // RING_SRC_OBS_TRACE_H_
