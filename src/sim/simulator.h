// Simulator: the event queue plus per-node N-shard CPU models.
#ifndef RING_SRC_SIM_SIMULATOR_H_
#define RING_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

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
    if (race_ != nullptr) {
      race_->SetCoresPerNode(params_.cores_per_node);
    }
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

  // Which (node, CPU shard) is currently executing a deferred work item;
  // node is -1 between completions. Maintained by CpuWorker so the fabric
  // can attribute newly posted verbs to the issuing shard.
  struct ExecContext {
    int32_t node = -1;
    uint32_t shard = 0;
  };
  const ExecContext& exec() const { return exec_; }
  // Internal: CpuWorker scopes the context around each completion.
  void set_exec(const ExecContext& ctx) { exec_ = ctx; }

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
      race_->SetCoresPerNode(params_.cores_per_node);
    }
  }

 private:
  EventQueue queue_;
  Rng rng_;
  SimParams params_;
  obs::Hub hub_;
  ExecContext exec_;
  std::unique_ptr<analysis::RaceDetector> race_;
};

// Models one server's CPU as `shards` independent cores (default 1, the
// paper's single-threaded servers): work items execute FIFO per shard, each
// consuming CPU time; callers observe completion when their item's cost has
// been "burned". Saturation behaviour (Figs. 9 and 11) falls out of the
// busy-until bookkeeping.
//
// Shard selection is the caller's: protocol code homes each key's work onto
// a deterministic shard (see RingServer::HomeShard) so per-store state stays
// single-shard and the race detector stays quiet. Posting work from one
// shard onto another is an explicit handoff: it costs an extra
// `cross_shard_handoff_ns` and is counted, mirroring the post()-style
// dispatch between Envoy workers.
//
// Completion callbacks live in a per-shard FIFO here rather than inside the
// scheduled events: the event carries only {worker, shard, generation}, so
// big protocol captures are stored once, and Reset() can cancel every
// not-yet-run completion by bumping the generation.
class CpuWorker {
 public:
  explicit CpuWorker(Simulator* simulator, uint32_t node = 0,
                     uint32_t shards = 1)
      : sim_(simulator), node_(node),
        shards_(shards == 0 ? 1 : shards) {}

  // Enqueues a work item costing `cost_ns` on shard 0 (the single-core
  // fast path); `fn` runs when it completes (an empty Task just burns the
  // cost). Returns the completion time.
  SimTime Execute(uint64_t cost_ns, Task fn) {
    return ExecuteOnShard(0, cost_ns, std::move(fn));
  }
  SimTime ExecuteOnShard(uint32_t shard, uint64_t cost_ns, Task fn);

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  // Deterministic home shard for a key hash.
  uint32_t ShardForHash(uint64_t hash) const {
    return shards_.size() == 1
               ? 0
               : static_cast<uint32_t>(hash % shards_.size());
  }

  // Time at which shard 0 goes idle (legacy single-core view), or a given
  // shard. ExecuteOnShard's return value is the per-item completion time.
  SimTime busy_until() const { return shards_[0].busy_until; }
  SimTime busy_until(uint32_t shard) const {
    return shards_[shard].busy_until;
  }
  // Total CPU time consumed so far, summed over shards (for utilization).
  uint64_t consumed_ns() const;
  uint64_t consumed_ns(uint32_t shard) const {
    return shards_[shard].consumed;
  }
  // Work currently queued ahead of a new arrival (worst shard).
  uint64_t backlog_ns() const;
  // Cross-shard posts observed (always 0 with one shard).
  uint64_t handoffs() const { return handoffs_; }

  // Zeroes all shard state and cancels every scheduled-but-not-run
  // completion: each scheduled event carries the generation it was issued
  // under and no-ops when it no longer matches.
  void Reset();

  uint32_t node() const { return node_; }

 private:
  struct Completion {
    Task fn;
    std::optional<analysis::VectorClock> edge;
  };
  struct Shard {
    SimTime busy_until = 0;
    uint64_t consumed = 0;
    std::deque<Completion> fifo;
  };

  void RunCompletion(uint32_t shard, uint64_t generation);

  Simulator* sim_;
  uint32_t node_ = 0;
  uint64_t generation_ = 0;
  uint64_t handoffs_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_SIMULATOR_H_
