#include "src/net/fabric.h"

#include <utility>

#include "src/analysis/race.h"
#include "src/fault/fault.h"
#include "src/obs/hub.h"

namespace ring::net {

Fabric::Fabric(sim::Simulator* simulator, uint32_t num_nodes)
    : sim_(simulator),
      alive_(num_nodes, true),
      egress_busy_(num_nodes, 0) {
  cpus_.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    cpus_.push_back(std::make_unique<sim::CpuWorker>(simulator, i));
  }
}

uint64_t Fabric::SerializationNs(uint64_t payload_bytes) const {
  const auto& p = sim_->params();
  return static_cast<uint64_t>(
      static_cast<double>(payload_bytes + p.wire_message_overhead_bytes) /
      p.link_bytes_per_ns);
}

Fabric::Departure Fabric::Depart(NodeId src, NodeId dst,
                                 uint64_t payload_bytes) {
  const sim::SimTime ser_start =
      egress_busy_[src] > sim_->now() ? egress_busy_[src] : sim_->now();
  egress_busy_[src] = ser_start + SerializationNs(payload_bytes);
  ++messages_sent_;
  bytes_sent_ += payload_bytes;
  obs::Hub& hub = sim_->hub();
  if (hub.tracing_enabled() && ser_start > sim_->now()) {
    hub.tracer().Record("egress_queue", obs::Category::kQueue, src,
                        hub.current_op(), sim_->now(), ser_start);
  }
  if (hub.metrics_enabled()) {
    hub.metrics().Inc("net.messages", 1, src);
    hub.metrics().CountLink(
        src, dst, payload_bytes + sim_->params().wire_message_overhead_bytes);
  }
  const uint64_t jitter = sim_->params().wire_jitter_ns;
  const sim::SimTime arrival = egress_busy_[src] +
                               (jitter ? sim_->rng().NextBelow(jitter) : 0) +
                               sim_->params().wire_latency_ns;
  return Departure{ser_start, arrival};
}

bool Fabric::paused(NodeId node) const {
  return injector_ != nullptr && injector_->paused(node);
}

std::unique_ptr<analysis::VectorClock> Fabric::CaptureEdge() {
  analysis::RaceDetector* race = sim_->race();
  if (race == nullptr) {
    return nullptr;
  }
  return std::make_unique<analysis::VectorClock>(race->CaptureEdge());
}

void Fabric::Enqueue(NodeId dst, sim::SimTime arrival, Pending p) {
  if (mc_ != nullptr) {
    // Model-checked mode: the tag identifies the delivery across replays,
    // so the controller may run deliveries in any order, or drop them.
    const uint64_t tag =
        mc_->OnDelivery(p.issuer, dst, static_cast<uint8_t>(p.kind));
    sim_->AtTagged(
        arrival,
        [this, dst, p = std::move(p)]() mutable { Process(dst, p); }, tag);
    return;
  }
  sim_->At(arrival,
           [this, dst, p = std::move(p)]() mutable { Process(dst, p); });
}

bool Fabric::RejectDelivery(NodeId dst, const Pending& p) {
  // One emptiness branch and one liveness load on the delivery fast path: a
  // live destination that revoked nothing rejects nothing.
  const bool revoked_here = revoked(dst, p.issuer);
  const bool dead_with_observer = !alive_[dst] && nack_armed();
  if (!revoked_here && !dead_with_observer) {
    return false;
  }
  ++nacks_sent_;
  obs::Hub& hub = sim_->hub();
  hub.recorder().Record(obs::RecKind::kNet,
                        revoked_here ? "rdma_nack_revoked" : "rdma_nack_dead",
                        dst, p.op, p.peer);
  if (hub.metrics_enabled()) {
    hub.metrics().Inc("net.nacks", 1, dst);
  }
  if (nack_armed()) {
    // The rejection travels back as a hardware NACK: the issuer observes it
    // one wire latency later, provided it is still alive then.
    const NodeId issuer = p.peer;
    sim_->At(sim_->now() + sim_->params().wire_latency_ns,
             [this, issuer, dst, revoked_here] {
               if (alive_[issuer] && nack_armed()) {
                 nack_(issuer, dst, revoked_here);
               }
             });
  }
  return true;
}

void Fabric::DeliverTwoSided(NodeId dst, Pending& p) {
  if (RejectDelivery(dst, p)) {
    return;  // permissions revoked (or dead dst under the NACK observer)
  }
  if (!alive_[dst]) {
    return;  // fail-stop: dead nodes neither receive nor respond
  }
  if (injector_ != nullptr && injector_->paused(dst)) {
    // Gray failure: the NIC accepted the message but the wedged process
    // makes no progress. Buffer the delivery; the injector replays it (in
    // arrival order) at resume, or discards it if the node crashes instead.
    auto parked = std::make_shared<Pending>(std::move(p));
    injector_->Defer(dst, [this, dst, parked] {
      DeliverTwoSided(dst, *parked);
    });
    return;
  }
  // Re-establish the sender's op context around the receive-cost charge so
  // the queue/busy spans it records stitch into the same distributed trace.
  obs::ScopedOp scope(sim_->hub(), p.op);
  // Carrier frame: CpuWorker::Execute captures the deferred handler's edge
  // from the current context, which must be the sender's clock here, not
  // the event loop's.
  analysis::ScopedOneSidedTask carry(sim_->race(), p.edge.get());
  cpus_[dst]->Execute(sim_->params().server_recv_ns, std::move(p.primary));
}

void Fabric::Process(NodeId dst, Pending& p) {
  switch (p.kind) {
    case Pending::Kind::kTwoSided:
      DeliverTwoSided(dst, p);
      return;
    case Pending::Kind::kWriteApply: {
      if (RejectDelivery(dst, p)) {
        return;  // NACKed: the issuer learns instead of waiting forever
      }
      if (!alive_[dst]) {
        return;  // no ack: the sender's completion never fires
      }
      obs::ScopedOp scope(sim_->hub(), p.op);
      if (p.primary) {
        // NIC DMA: remote memory changes without CPU involvement, so the
        // accesses it performs carry the issuer's clock only — they are
        // never joined into the destination CPU.
        analysis::ScopedOneSidedTask dma(sim_->race(), p.edge.get());
        p.primary();
      }
      // Hardware ack back to the source.
      const uint64_t latency = sim_->params().wire_latency_ns;
      sim_->hub().tracer().Record("rdma_ack", obs::Category::kNetwork, dst,
                                  p.op, sim_->now(), sim_->now() + latency);
      if (!p.secondary && mc_ == nullptr) {
        // Nothing runs when the ack lands (every server ack and GC notice),
        // so it needs no event. A ring-mc tagger numbers every delivery, so
        // under one the empty completion is still scheduled.
        return;
      }
      Pending done;
      done.kind = Pending::Kind::kCompletion;
      done.peer = p.peer;
      done.issuer = dst;
      done.op = p.op;
      done.primary = std::move(p.secondary);
      done.edge = std::move(p.edge);
      Enqueue(p.peer, sim_->now() + latency, std::move(done));
      return;
    }
    case Pending::Kind::kReadServe: {
      if (RejectDelivery(dst, p)) {
        return;
      }
      if (!alive_[dst]) {
        return;
      }
      obs::ScopedOp scope(sim_->hub(), p.op);
      if (p.primary) {
        // One-sided fetch: reads remote memory under the issuer's clock only.
        analysis::ScopedOneSidedTask dma(sim_->race(), p.edge.get());
        p.primary();
      }
      const Departure resp = Depart(dst, p.peer, p.response_bytes);
      sim_->hub().tracer().Record("rdma_read_resp", obs::Category::kNetwork,
                                  dst, p.op, resp.ser_start, resp.arrival);
      Pending done;
      done.kind = Pending::Kind::kCompletion;
      done.peer = p.peer;
      done.issuer = dst;
      done.op = p.op;
      done.primary = std::move(p.secondary);
      done.edge = std::move(p.edge);
      Enqueue(p.peer, resp.arrival, std::move(done));
      return;
    }
    case Pending::Kind::kCompletion:
      if (alive_[dst] && p.primary) {
        obs::ScopedOp scope(sim_->hub(), p.op);
        // Completion is observed by the issuing CPU polling its queue.
        analysis::ScopedCpuTask done(sim_->race(), dst, p.edge.get());
        p.primary();
      }
      return;
  }
}

void Fabric::Send(NodeId src, NodeId dst, uint64_t payload_bytes,
                  sim::Task handler) {
  if (!alive_[src]) {
    return;
  }
  uint64_t extra_delay = 0;
  uint64_t dup_delay = 0;
  bool duplicate = false;
  if (injector_ != nullptr) {
    if (injector_->paused(src)) {
      return;  // a wedged process posts no sends
    }
    const fault::Verdict v = injector_->OnTwoSided(src, dst);
    // Injected verdicts go to the flight recorder with the op context of
    // the sender, tying each lost/duped/slowed message to its operation.
    if (v.drop) {
      sim_->hub().recorder().Record(obs::RecKind::kNet, "msg_dropped", src,
                                    sim_->hub().current_op(), dst);
      return;
    }
    if (v.duplicate) {
      sim_->hub().recorder().Record(obs::RecKind::kNet, "msg_duplicated", src,
                                    sim_->hub().current_op(), dst);
    }
    if (v.extra_delay_ns != 0) {
      sim_->hub().recorder().Record(obs::RecKind::kNet, "msg_delayed", src,
                                    sim_->hub().current_op(), dst,
                                    v.extra_delay_ns);
    }
    extra_delay = v.extra_delay_ns;
    duplicate = v.duplicate;
    dup_delay = v.dup_delay_ns;
  }
  obs::Hub& hub = sim_->hub();
  const uint64_t op = hub.current_op();
  const Departure d = Depart(src, dst, payload_bytes);
  hub.tracer().Record("wire", obs::Category::kNetwork, src, op, d.ser_start,
                      d.arrival);
  // Message edge: the receive handler is ordered after everything the sender
  // did before issuing.
  std::unique_ptr<analysis::VectorClock> edge = CaptureEdge();
  if (duplicate) {
    // Chaos-only: the duplicate is an independent wire copy, so it runs an
    // independent copy of the handler (handlers may consume their captures
    // when invoked; sharing one closure across both deliveries would hand
    // the second one moved-from state).
    Pending dup;
    dup.kind = Pending::Kind::kTwoSided;
    dup.peer = src;
    dup.issuer = src;
    dup.op = op;
    dup.primary = handler.Clone();
    if (edge != nullptr) {
      dup.edge = std::make_unique<analysis::VectorClock>(*edge);
    }
    Enqueue(dst, d.arrival + dup_delay, std::move(dup));
  }
  Pending p;
  p.kind = Pending::Kind::kTwoSided;
  p.peer = src;
  p.issuer = src;
  p.op = op;
  p.primary = std::move(handler);
  p.edge = std::move(edge);
  Enqueue(dst, d.arrival + extra_delay, std::move(p));
}

void Fabric::Write(NodeId src, NodeId dst, uint64_t payload_bytes,
                   sim::Task apply, sim::Task on_complete) {
  if (!alive_[src]) {
    return;
  }
  uint64_t extra_delay = 0;
  if (injector_ != nullptr) {
    if (injector_->paused(src)) {
      return;  // a wedged process posts no work requests
    }
    // One-sided: the verb is hardware-to-hardware, so a *paused* destination
    // still serves it (gray failure leaves the NIC alive). A dropped verb
    // models a torn QP: the issuer never sees a completion.
    const fault::Verdict v = injector_->OnOneSided(src, dst);
    if (v.drop) {
      sim_->hub().recorder().Record(obs::RecKind::kNet, "rdma_write_dropped",
                                    src, sim_->hub().current_op(), dst);
      return;
    }
    extra_delay = v.extra_delay_ns;
  }
  obs::Hub& hub = sim_->hub();
  const uint64_t op = hub.current_op();
  Departure d = Depart(src, dst, payload_bytes);
  d.arrival += extra_delay;
  hub.tracer().Record("rdma_write", obs::Category::kNetwork, src, op,
                      d.ser_start, d.arrival);
  Pending p;
  p.kind = Pending::Kind::kWriteApply;
  p.peer = src;
  p.issuer = src;
  p.op = op;
  p.primary = std::move(apply);
  p.secondary = std::move(on_complete);
  p.edge = CaptureEdge();
  Enqueue(dst, d.arrival, std::move(p));
}

void Fabric::Read(NodeId src, NodeId dst, uint64_t response_bytes,
                  sim::Task fetch, sim::Task on_complete) {
  if (!alive_[src]) {
    return;
  }
  uint64_t extra_delay = 0;
  if (injector_ != nullptr) {
    if (injector_->paused(src)) {
      return;  // a wedged process posts no work requests
    }
    const fault::Verdict v = injector_->OnOneSided(src, dst);
    if (v.drop) {
      sim_->hub().recorder().Record(obs::RecKind::kNet, "rdma_read_dropped",
                                    src, sim_->hub().current_op(), dst);
      return;
    }
    extra_delay = v.extra_delay_ns;
  }
  obs::Hub& hub = sim_->hub();
  const uint64_t op = hub.current_op();
  // Request message is small (a work request descriptor).
  Departure req = Depart(src, dst, 0);
  req.arrival += extra_delay;
  hub.tracer().Record("rdma_read_req", obs::Category::kNetwork, src, op,
                      req.ser_start, req.arrival);
  Pending p;
  p.kind = Pending::Kind::kReadServe;
  p.peer = src;
  p.issuer = src;
  p.op = op;
  p.response_bytes = response_bytes;
  p.primary = std::move(fetch);
  p.secondary = std::move(on_complete);
  p.edge = CaptureEdge();
  Enqueue(dst, req.arrival, std::move(p));
}

}  // namespace ring::net
