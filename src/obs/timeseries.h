// Time-series layer: samples registered metrics into fixed-width sim-time
// windows — counter deltas for counters, compact per-window log2 histograms
// for latencies — from which per-window SLIs (goodput, error rate, p50/p99,
// availability) are derived. Memory is bounded by construction: each tracked
// series is a fixed ring of `capacity_windows` slots (older windows are
// overwritten), and at most `max_series` distinct {name,node,memgest,op}
// series are materialised (excess series are counted, not stored).
//
// The layer is fed by Metrics (counter/histogram recording forwards here
// after the usual registry update) and consults the hub clock only while
// enabled; it never schedules events and never touches the simulation RNG,
// so enabling it cannot perturb the simulation.
#ifndef RING_SRC_OBS_TIMESERIES_H_
#define RING_SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace ring::obs {

// Metric names the SLI derivation is built on. The client records one
// ops_ok/op_errors increment and one op_latency_ns sample per completed
// operation.
inline constexpr char kSliOpsOk[] = "client.ops_ok";
inline constexpr char kSliOpErrors[] = "client.op_errors";
inline constexpr char kSliOpLatencyNs[] = "client.op_latency_ns";

class TimeSeries {
 public:
  struct Options {
    uint64_t window_ns = 1'000'000;  // 1 ms of sim time per window
    size_t capacity_windows = 512;   // ring depth per series
    size_t max_series = 256;         // cap on distinct materialised series
  };

  // Compact per-window log2 histogram (same bucket layout as Histogram,
  // narrower counters: one window never sees > 4e9 samples).
  struct WindowHist {
    uint32_t buckets[Histogram::kBuckets] = {};
    uint32_t count = 0;
    uint64_t sum = 0;

    void Observe(uint64_t value);
    void MergeFrom(const WindowHist& other);
    void Clear();
    // Geometric-midpoint percentile estimate (see Histogram::ApproxPercentile
    // for the error bound); 0 for an empty window.
    uint64_t Percentile(double p) const;
  };

  // One tracked metric key: a ring of `capacity` windows. Window w lives in
  // slot w % capacity; [first, last] is the retained (non-evicted) range.
  struct Series {
    bool is_hist = false;
    bool any = false;       // false until the first event lands
    uint64_t first = 0;     // oldest retained window index
    uint64_t last = 0;      // newest written window index
    size_t capacity = 0;
    std::vector<uint64_t> counts;   // counter-delta slots (!is_hist)
    std::vector<WindowHist> hists;  // latency slots (is_hist)

    // 0 / nullptr outside the retained range.
    uint64_t CountAt(uint64_t w) const;
    const WindowHist* HistAt(uint64_t w) const;
  };

  // One derived SLI row (one window, aggregated across nodes).
  struct SliWindow {
    uint64_t window = 0;    // index; window start = window * window_ns
    uint64_t start_ns = 0;
    uint64_t ops_ok = 0;
    uint64_t ops_err = 0;
    double goodput_per_sec = 0.0;
    double error_rate = 0.0;  // err / (ok + err), 0 when idle
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
    bool available = true;
  };

  // Configure before Enable; rejected (no-op) once series exist.
  void Configure(const Options& options);
  const Options& options() const { return options_; }
  uint64_t window_ns() const { return options_.window_ns; }

  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }
  void SetClock(std::function<uint64_t()> clock);

  // Register metric names to window. Untracked names are ignored at record
  // time. TrackSliDefaults registers the client SLI trio plus the protocol
  // anomaly counters the post-mortem report cares about.
  void TrackCounter(const char* name);
  void TrackLatency(const char* name);
  void TrackSliDefaults();

  // Recording entry points, called by Metrics after its own update.
  void OnCounter(const MetricKey& key, uint64_t delta);
  void OnSample(const MetricKey& key, uint64_t value);

  // Series dropped because max_series was reached.
  uint64_t dropped_series() const { return dropped_series_; }
  // ring-lint: ok(test-only-api) Metrics' OnCounter/OnSample forwarding
  const std::map<MetricKey, Series>& series() const { return series_; }

  // Derived per-window SLIs over the retained range up to the window
  // holding `until_ns`, aggregated across nodes, memgests and op kinds;
  // empty when no SLI series exist. A window is available iff ops_ok >=
  // max(1, half the median ops_ok over the non-empty windows in range) —
  // deterministic and scale-free.
  std::vector<SliWindow> Slis(uint64_t until_ns = UINT64_MAX) const;

  void Clear();

 private:
  Series* Resolve(const MetricKey& key, bool is_hist);
  // Slot for window w, evicting/zeroing as the ring advances; nullptr when
  // w predates the retained range.
  template <typename SlotFn>
  bool Advance(Series& s, uint64_t w, SlotFn&& clear_slot);

  bool enabled_ = false;
  Options options_;
  std::function<uint64_t()> clock_;
  std::set<std::string, std::less<>> tracked_counters_;
  std::set<std::string, std::less<>> tracked_latencies_;
  std::map<MetricKey, Series> series_;
  uint64_t dropped_series_ = 0;
};

}  // namespace ring::obs

#endif  // RING_SRC_OBS_TIMESERIES_H_
