// Benchmark drivers: closed-loop latency measurement and open-loop
// throughput generation against a RingCluster (paper §6 methodology).
#ifndef RING_SRC_WORKLOAD_DRIVERS_H_
#define RING_SRC_WORKLOAD_DRIVERS_H_

#include <memory>

#include "src/common/stats.h"
#include "src/ring/cluster.h"
#include "src/workload/ycsb.h"

namespace ring::workload {

// Rotating-hotspot rank offset at simulated time `now`: the Zipf head sits
// on rank `phase * shift` where the phase advances every `period_ns`. With
// period 0 the hotspot is static (offset 0). Deterministic in sim time, so
// benches replaying the same schedule see identical hot→cold transitions.
inline uint64_t HotspotOffset(sim::SimTime now, sim::SimTime period_ns,
                              uint64_t shift) {
  return period_ns == 0 ? 0 : (now / period_ns) * shift;
}

// One operation at a time, N repetitions; the paper's latency methodology
// ("each measurement is repeated 5000 times, the figure reports the median
// and the 90th percentile").
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(RingCluster* cluster, uint32_t client_index = 0)
      : cluster_(cluster), client_(client_index) {}

  // Put latency for `reps` puts of `value_size` bytes into `memgest`,
  // cycling over `key_count` distinct keys.
  Samples MeasurePutLatency(MemgestId memgest, size_t value_size, int reps,
                            int key_count = 16);
  // Get latency over keys previously written with `value_size` bytes.
  Samples MeasureGetLatency(MemgestId memgest, size_t value_size, int reps,
                            int key_count = 16);
  // Latency of move(key, dst) for objects of `value_size` bytes initially
  // stored in `src`. Each rep re-puts the key into `src` first (not timed).
  Samples MeasureMoveLatency(MemgestId src, MemgestId dst, size_t value_size,
                             int reps);

 private:
  RingCluster* cluster_;
  uint32_t client_;
};

// Rate-driven generator with a bounded request window (open loop with flow
// control): issues YCSB operations at `rate` per second; ops beyond the
// window are counted as dropped — the system's completion rate is the
// throughput (Figs. 9, 11).
class OpenLoopDriver {
 public:
  struct Options {
    double rate_per_sec = 100'000;
    uint32_t max_outstanding = 128;
    MemgestId memgest = kDefaultMemgest;
    YcsbSpec spec;
    uint64_t seed = 7;
  };

  OpenLoopDriver(RingCluster* cluster, uint32_t client_index,
                 Options options);

  void Start();
  void Stop() { running_ = false; }
  void SetRate(double rate_per_sec) { rate_ = rate_per_sec; }

  // ring-lint: ok(test-only-api) read-back of the Poisson arrival rate
  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void ScheduleNext();
  void IssueOne();

  RingCluster* cluster_;
  uint32_t client_;
  Options options_;
  YcsbWorkload workload_;
  std::shared_ptr<Buffer> value_;  // shared payload (server copies anyway)
  double rate_;
  bool running_ = false;
  sim::SimTime next_issue_ = 0;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t dropped_ = 0;
};

// Writes every key of the spec once (sequential blocking puts); returns the
// number of keys loaded.
uint64_t Preload(RingCluster* cluster, const YcsbSpec& spec,
                 MemgestId memgest, uint64_t seed = 3);

}  // namespace ring::workload

#endif  // RING_SRC_WORKLOAD_DRIVERS_H_
