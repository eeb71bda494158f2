// Hub: per-simulation bundle of the metrics registry and the span tracer,
// plus the "current operation" context used to stitch distributed traces.
//
// The simulator is single-threaded, so the current op is a plain member.
// Deferred work carries it: a fabric delivery runs under the op that sent the
// message (net::Fabric), and a CPU work item under the op that enqueued it
// (sim::CpuWorker). Only a plain timer (Simulator::At/After) starts at op 0;
// a timer that acts for an op, or a callback that must run under another op
// than its caller's, sets it with ScopedOp.
#ifndef RING_SRC_OBS_HUB_H_
#define RING_SRC_OBS_HUB_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace ring::obs {

// Globally unique operation id: issuing client node in the high 32 bits,
// client-local request id in the low 32. Never 0 for a real operation.
inline uint64_t MakeOpId(uint32_t client_node, uint32_t req_id) {
  return (static_cast<uint64_t>(client_node + 1) << 32) | req_id;
}

class Hub {
 public:
  Hub() { metrics_.AttachTimeSeries(&timeseries_); }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  TimeSeries& timeseries() { return timeseries_; }
  const TimeSeries& timeseries() const { return timeseries_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  void EnableMetrics(bool on) { metrics_.Enable(on); }
  void EnableTracing(bool on) { tracer_.Enable(on); }
  // The time-series layer is fed by Metrics, so enabling it also enables
  // the registry (windowing without recording would see nothing).
  void EnableTimeSeries(bool on) {
    timeseries_.Enable(on);
    if (on) {
      metrics_.Enable(true);
    }
  }
  void EnableRecorder(bool on) { recorder_.Enable(on); }
  bool metrics_enabled() const { return metrics_.enabled(); }
  bool tracing_enabled() const { return tracer_.enabled(); }
  bool recorder_enabled() const { return recorder_.enabled(); }

  // Sim-time source for the windowing layer and the flight recorder;
  // installed once by the simulator that owns this hub.
  void SetClock(std::function<uint64_t()> clock) {
    timeseries_.SetClock(clock);
    recorder_.SetClock(std::move(clock));
  }

  uint64_t current_op() const { return current_op_; }
  void set_current_op(uint64_t op_id) { current_op_ = op_id; }

 private:
  Metrics metrics_;
  Tracer tracer_;
  TimeSeries timeseries_;
  FlightRecorder recorder_;
  uint64_t current_op_ = 0;
};

// RAII guard establishing the current op for the dynamic extent of a handler
// body. Restores the previous op on destruction, so nested scopes (client op
// enclosing a fabric delivery) behave.
class ScopedOp {
 public:
  ScopedOp(Hub& hub, uint64_t op_id) : hub_(hub), prev_(hub.current_op()) {
    hub_.set_current_op(op_id);
  }
  ~ScopedOp() { hub_.set_current_op(prev_); }
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  Hub& hub_;
  uint64_t prev_;
};

}  // namespace ring::obs

#endif  // RING_SRC_OBS_HUB_H_
