#include "src/sim/simulator.h"

#include <utility>

namespace ring::sim {

void Simulator::Run() {
  while (queue_.RunNext()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  // Sentinel marker: runs events scheduled before t (and same-time events
  // enqueued before this call), then leaves the clock at t.
  bool stop = false;
  queue_.Schedule(t, [&stop] { stop = true; });
  while (!stop && queue_.RunNext()) {
  }
}

SimTime CpuWorker::Execute(uint64_t cost_ns, Task fn) {
  obs::Hub& hub = sim_->hub();
  const SimTime start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  busy_until_ = start + cost_ns;
  consumed_ += cost_ns;
  if (hub.tracing_enabled()) {
    const uint64_t op = hub.current_op();
    if (start > sim_->now()) {
      hub.tracer().Record("cpu_queue", obs::Category::kQueue, node_, op,
                          sim_->now(), start);
    }
    if (cost_ns > 0) {
      hub.tracer().Record("cpu", obs::Category::kCpu, node_, op, start,
                          busy_until_);
    }
  }
  if (hub.metrics_enabled()) {
    hub.metrics().Inc("cpu.busy_ns", cost_ns, node_);
    if (start > sim_->now()) {
      hub.metrics().Observe("cpu.queue_wait_ns", start - sim_->now(), node_);
    }
    hub.metrics().SetGauge("cpu.backlog_ns",
                           static_cast<int64_t>(busy_until_ - sim_->now()),
                           node_);
  }
  // Race detection: the deferred item runs on this CPU; the edge from the
  // enqueuing context (captured now) orders it after its cause.
  Completion completion;
  completion.fn = std::move(fn);
  analysis::RaceDetector* race = sim_->race();
  if (race != nullptr) {
    completion.edge = race->CaptureEdge();
  }
  fifo_.push_back(std::move(completion));
  // Thin event: the payload stays in the FIFO. Completions are scheduled
  // with nondecreasing times in seq order, so the queue fires them
  // front-first.
  sim_->At(busy_until_, [this, generation = generation_] {
    RunCompletion(generation);
  });
  return busy_until_;
}

void CpuWorker::RunCompletion(uint64_t generation) {
  if (generation != generation_) {
    return;  // Reset() cancelled everything scheduled under the old epoch
  }
  Completion completion = std::move(fifo_.front());
  fifo_.pop_front();
  analysis::ScopedCpuTask task(
      sim_->race(), node_,
      completion.edge.has_value() ? &*completion.edge : nullptr);
  if (completion.fn) {
    completion.fn();
  }
}

void CpuWorker::Reset() {
  ++generation_;
  busy_until_ = 0;
  consumed_ = 0;
  fifo_.clear();
}

}  // namespace ring::sim
