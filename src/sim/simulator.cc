#include "src/sim/simulator.h"

#include <memory>
#include <new>
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
  const uint64_t op = hub.current_op();
  const SimTime start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  busy_until_ = start + cost_ns;
  consumed_ += cost_ns;
  if (hub.tracing_enabled()) {
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
  // The deferred item runs on this CPU under the enqueuing context: its op,
  // and for race detection the edge (captured now) that orders it after its
  // cause.
  if (fifo_size_ == fifo_capacity_) {
    GrowFifo();
  }
  Completion* completion =
      ::new (Slot(fifo_size_)) Completion{std::move(fn), op, std::nullopt};
  ++fifo_size_;
  analysis::RaceDetector* race = sim_->race();
  if (race != nullptr) {
    completion->edge = race->CaptureEdge();
  }
  // Thin event: the payload stays in the FIFO. Completions are scheduled
  // with nondecreasing times in seq order, so the queue fires them
  // front-first.
  sim_->At(busy_until_, [this] { RunCompletion(); });
  return busy_until_;
}

CpuWorker::~CpuWorker() {
  for (size_t n = 0; n < fifo_size_; ++n) {
    std::destroy_at(Slot(n));
  }
  if (fifo_ != nullptr) {
    std::allocator<Completion>().deallocate(fifo_, fifo_capacity_);
  }
}

void CpuWorker::GrowFifo() {
  const size_t capacity = fifo_capacity_ == 0 ? 16 : 2 * fifo_capacity_;
  Completion* fifo = std::allocator<Completion>().allocate(capacity);
  for (size_t n = 0; n < fifo_size_; ++n) {
    ::new (fifo + n) Completion(std::move(*Slot(n)));
    std::destroy_at(Slot(n));
  }
  if (fifo_ != nullptr) {
    std::allocator<Completion>().deallocate(fifo_, fifo_capacity_);
  }
  fifo_ = fifo;
  fifo_capacity_ = capacity;
  fifo_head_ = 0;
}

void CpuWorker::RunCompletion() {
  Completion completion = std::move(*Slot(0));
  std::destroy_at(Slot(0));
  fifo_head_ = (fifo_head_ + 1) & (fifo_capacity_ - 1);
  --fifo_size_;
  obs::ScopedOp scope(sim_->hub(), completion.op);
  analysis::ScopedCpuTask task(
      sim_->race(), node_,
      completion.edge.has_value() ? &*completion.edge : nullptr);
  if (completion.fn) {
    completion.fn();
  }
}

}  // namespace ring::sim
