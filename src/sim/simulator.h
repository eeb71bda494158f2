// Simulator: the event queue plus one single-core CPU model per node.
#ifndef RING_SRC_SIM_SIMULATOR_H_
#define RING_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/analysis/race.h"
#include "src/common/rng.h"
#include "src/obs/hub.h"
#include "src/sim/event_queue.h"
#include "src/sim/params.h"
#include "src/sim/task.h"

namespace ring::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1, SimParams params = kDefaultParams)
      : rng_(seed), params_(params),
        race_(analysis::RaceDetector::FromEnv()) {
    // The hub's windowing layer and flight recorder timestamp off the event
    // queue; the clock captures `this`, so the simulator must stay put.
    hub_.SetClock([this] { return queue_.now(); });
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return queue_.now(); }
  const SimParams& params() const { return params_; }
  SimParams& mutable_params() { return params_; }
  Rng& rng() { return rng_; }

  void At(SimTime t, Task fn) { queue_.Schedule(t, std::move(fn)); }
  // Model-checkable delivery: identical to At() unless an MC controller is
  // installed on the queue (see EventQueue::ScheduleTagged).
  void AtTagged(SimTime t, Task fn, uint64_t tag) {
    queue_.ScheduleTagged(t, std::move(fn), tag);
  }
  void After(SimTime delay, Task fn) {
    queue_.Schedule(queue_.now() + delay, std::move(fn));
  }
  // A timer's place in the event order, taken now and scheduled later with
  // AtReserved (see EventQueue::ReserveSeq).
  uint64_t ReserveSeq() { return queue_.ReserveSeq(); }
  void AtReserved(SimTime t, uint64_t seq, Task fn) {
    queue_.ScheduleReserved(t, seq, std::move(fn));
  }

  // Runs until the queue drains.
  void Run();
  // Runs events with time <= t, then sets the clock to t.
  void RunUntil(SimTime t);

  uint64_t events_executed() const { return queue_.executed(); }
  EventQueue& queue() { return queue_; }

  // Per-simulation observability: metrics + tracer + current-op context.
  // Owned here so parallel test simulations stay isolated.
  obs::Hub& hub() { return hub_; }
  const obs::Hub& hub() const { return hub_; }

  // Happens-before race detector (src/analysis). Null unless opted in via
  // RING_ANALYZE=race or EnableRaceDetection(); every hook site checks for
  // null, so the disabled path costs one branch and perturbs nothing.
  analysis::RaceDetector* race() { return race_.get(); }
  // Attaching the detector deliberately leaves tracing alone: every access
  // carries its own phase label, and Report() only consults the tracer for
  // the richer per-op phase stacks when the caller enabled tracing itself.
  void EnableRaceDetection() {
    if (race_ == nullptr) {
      race_ = std::make_unique<analysis::RaceDetector>();
    }
  }

 private:
  EventQueue queue_;
  Rng rng_;
  SimParams params_;
  obs::Hub hub_;
  std::unique_ptr<analysis::RaceDetector> race_;
};

// Models one server's CPU as a single core, like the paper's
// single-threaded servers: work items execute FIFO, each consuming CPU
// time; callers observe completion when their item's cost has been
// "burned". Saturation behaviour (Figs. 9 and 11) falls out of the
// busy-until bookkeeping.
//
// Completion callbacks live in a FIFO here rather than inside the scheduled
// events: the event carries only the worker, so big protocol captures are
// stored once.
//
// A work item carries the context it was enqueued under: the current op
// (obs::Hub::current_op) and, with race detection on, the happens-before
// edge. Both are restored around the item when it runs, so deferred work
// stays attributed to the operation that queued it.
class CpuWorker {
 public:
  explicit CpuWorker(Simulator* simulator, uint32_t node = 0)
      : sim_(simulator), node_(node) {}
  CpuWorker(const CpuWorker&) = delete;
  CpuWorker& operator=(const CpuWorker&) = delete;
  ~CpuWorker();

  // Enqueues a work item costing `cost_ns`; `fn` runs when it completes (an
  // empty Task just burns the cost), under the op current now. Returns the
  // completion time.
  SimTime Execute(uint64_t cost_ns, Task fn);

  // Total CPU time consumed so far (for utilization).
  uint64_t consumed_ns() const { return consumed_; }

  uint32_t node() const { return node_; }

 private:
  struct Completion {
    Task fn;
    uint64_t op = 0;
    std::optional<analysis::VectorClock> edge;
  };

  void RunCompletion();
  // The slot of the n-th queued item, the oldest being 0.
  Completion* Slot(size_t n) const {
    return fifo_ + ((fifo_head_ + n) & (fifo_capacity_ - 1));
  }
  // Doubles the ring, oldest item first at slot 0.
  void GrowFifo();

  Simulator* sim_;
  uint32_t node_ = 0;
  SimTime busy_until_ = 0;
  uint64_t consumed_ = 0;
  // The FIFO: a ring of fifo_capacity_ slots (a power of two) holding
  // fifo_size_ items from fifo_head_ on. An item is constructed in its slot
  // when queued and destroyed when it runs, so queueing never reads the
  // slot, which was last used a lap ago and is seldom still cached. The
  // ring never shrinks, so a busy core allocates nothing.
  Completion* fifo_ = nullptr;
  size_t fifo_capacity_ = 0;
  size_t fifo_head_ = 0;
  size_t fifo_size_ = 0;
};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_SIMULATOR_H_
