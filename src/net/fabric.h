// Simulated RDMA fabric.
//
// Substitutes for the paper's InfiniBand cluster + libibverbs. Endpoints are
// nodes with single-core CPUs (sim::CpuWorker); the fabric models
//   - per-message one-way wire latency,
//   - per-byte link bandwidth with egress serialization (a NIC pushes one
//     message at a time),
//   - fail-stop endpoints (messages to/from dead nodes are dropped).
// Two delivery modes mirror the verbs the paper relies on:
//   - Send (two-sided): consumes receiver CPU before the handler runs —
//     the normal request path.
//   - Write/Read (one-sided): "performed entirely by the hardware"; no
//     remote CPU is charged. Ring uses this to offload replication traffic
//     from redundant nodes (§6).
//
// Every in-flight message is one scheduled event at its arrival time. The
// event owns the message's payload (handler closures, op context, race
// edge) and processes it at the destination, so deliveries to a node run
// in (arrival, issue) order.
#ifndef RING_SRC_NET_FABRIC_H_
#define RING_SRC_NET_FABRIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/analysis/race.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ring::fault {
class FaultInjector;
}  // namespace ring::fault

namespace ring::net {

using NodeId = uint32_t;

// Model-checker hook (src/mc): assigns a schedule tag to every delivery the
// fabric schedules, so the EventQueue's ScheduleController can permute or
// drop them. Tags are handed out in registration order — runs that share
// a decision prefix perform identical registrations, so tags are stable
// across replays.
class DeliveryTagger {
 public:
  virtual ~DeliveryTagger() = default;
  // `kind` is the Pending::Kind of the delivery, as uint8_t so the private
  // enum stays private.
  virtual uint64_t OnDelivery(NodeId issuer, NodeId dst, uint8_t kind) = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator* simulator, uint32_t num_nodes);

  sim::Simulator* simulator() { return sim_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(cpus_.size()); }

  // Per-node CPU model (servers and clients alike).
  sim::CpuWorker& cpu(NodeId node) { return *cpus_[node]; }

  // Fail-stop control.
  void Kill(NodeId node) { alive_[node] = false; }
  void Revive(NodeId node) { alive_[node] = true; }
  bool alive(NodeId node) const { return alive_[node]; }

  // --- Queue-pair permission revocation (§16 fast failover) -----------------
  // Models RDMA QP access revocation as a first-class one-sided primitive:
  // once `at` revokes `from`'s permissions, every in-flight and future
  // operation issued by `from` and addressed to `at` is rejected at delivery
  // time and NACKed back to the issuer deterministically (the check runs
  // when an op arrives at `at`, so ops already on the wire are caught too).
  // The revocation set is empty by default — the delivery fast path pays
  // one emptiness branch and stays byte-identical to the seed.
  void Revoke(NodeId at, NodeId from) { revoked_.insert(PairKey(at, from)); }
  void Restore(NodeId at, NodeId from) { revoked_.erase(PairKey(at, from)); }
  bool revoked(NodeId at, NodeId from) const {
    return !revoked_.empty() && revoked_.count(PairKey(at, from)) != 0;
  }

  // NACK observer: fired at the issuing node, one wire latency after the
  // fabric rejects an operation (destination dead at delivery, or issuer's
  // permissions revoked there). `fn(issuer, dst, permission_revoked)` runs
  // only while the issuer is alive; `permission_revoked` distinguishes "the
  // peer is unreachable" (grounds to suspect the peer) from "my own
  // permissions were revoked there" (the issuer is the suspect and must not
  // counter-suspect the witness). Null (the default) keeps silent-drop
  // semantics for a fabric used without membership; MembershipGroup::Start
  // installs one.
  // Cold control-plane hook: invoked once per NACK (fabric rejections only),
  // never on the per-delivery fast path, so the general-heap capture box
  // never touches the pooled sim::Task allocator's hot loop.
  using NackHandler =  // ring-lint: ok(boxed-callback) cold NACK-only hook
      std::function<void(NodeId issuer, NodeId dst, bool permission_revoked)>;
  void set_nack_handler(NackHandler fn) { nack_ = std::move(fn); }
  bool nack_armed() const { return static_cast<bool>(nack_); }

  uint64_t nacks_sent() const { return nacks_sent_; }

  // Chaos injection (src/fault). Null keeps every fast path one branch away
  // from the injection-free behaviour — required for determinism_test.
  void set_injector(fault::FaultInjector* injector) { injector_ = injector; }
  fault::FaultInjector* injector() { return injector_; }
  // Model-checker tagger (src/mc). Null keeps the delivery path
  // byte-identical to the untagged fabric; only ring-mc explorations
  // install one.
  void set_mc_tagger(DeliveryTagger* tagger) { mc_ = tagger; }
  // Gray failure: the node's CPU is wedged but its NIC still answers
  // one-sided verbs and buffers received messages until resume.
  bool paused(NodeId node) const;

  // Two-sided send: after egress serialization + wire latency, charges
  // `server_recv_ns` on the destination CPU and runs `handler`.
  // Dropped silently when either endpoint is dead at the relevant moment.
  void Send(NodeId src, NodeId dst, uint64_t payload_bytes, sim::Task handler);

  // One-sided RDMA write: the payload lands at the destination without
  // involving its CPU; `apply` runs at arrival (NIC DMA), `on_complete`
  // runs at the source once the hardware ack returns.
  void Write(NodeId src, NodeId dst, uint64_t payload_bytes, sim::Task apply,
             sim::Task on_complete);

  // One-sided RDMA read: `fetch` runs at the destination at request arrival
  // (no remote CPU), `on_complete` runs at the source after `response_bytes`
  // travel back.
  void Read(NodeId src, NodeId dst, uint64_t response_bytes, sim::Task fetch,
            sim::Task on_complete);

  // Transfer time of one message on the wire (serialization only).
  uint64_t SerializationNs(uint64_t payload_bytes) const;

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  // One in-flight delivery, owned by its arrival event.
  struct Pending {
    enum class Kind : uint8_t {
      kTwoSided,    // charge server_recv_ns on dst, run handler
      kWriteApply,  // run apply as NIC DMA, then schedule the ack
      kReadServe,   // run fetch as NIC DMA, then send the response
      kCompletion,  // run on_complete on the issuing node
    };
    Kind kind = Kind::kTwoSided;
    NodeId peer = 0;        // issuer (kWriteApply/kReadServe) / poller (kCompletion)
    // Node whose action caused this delivery (for a completion: the remote
    // node that generated the ack/response). Feeds the MC tagger's
    // happens-before bookkeeping; unused without one.
    NodeId issuer = 0;
    uint64_t op = 0;
    uint64_t response_bytes = 0;
    sim::Task primary;    // handler / apply / fetch / on_complete
    sim::Task secondary;  // on_complete riding behind apply/fetch
    std::unique_ptr<analysis::VectorClock> edge;
  };
  // Egress serialization on src's NIC: when the message started serializing
  // and when it arrives at dst (serialization + jitter + wire latency).
  // Records the egress-queue span and per-link byte counters.
  struct Departure {
    sim::SimTime ser_start;
    sim::SimTime arrival;
  };
  Departure Depart(NodeId src, NodeId dst, uint64_t payload_bytes);

  std::unique_ptr<analysis::VectorClock> CaptureEdge();

  static constexpr uint64_t PairKey(NodeId at, NodeId from) {
    return (static_cast<uint64_t>(at) << 32) | from;
  }
  // True when the delivery must be rejected (dead destination with the NACK
  // observer armed, or issuer revoked at dst); schedules the NACK back to
  // the issuer. kCompletion pendings are never NACKed — the remote side
  // already acted.
  bool RejectDelivery(NodeId dst, const Pending& p);

  // Schedules the event that delivers `p` to dst at `arrival`.
  void Enqueue(NodeId dst, sim::SimTime arrival, Pending p);
  void Process(NodeId dst, Pending& p);

  // Terminal leg of a two-sided delivery: re-checks liveness/pause and
  // charges the receive cost on the destination's CPU. Re-defers
  // itself while the receiver is paused (the injector flushes at resume).
  void DeliverTwoSided(NodeId dst, Pending& p);

  sim::Simulator* sim_;
  fault::FaultInjector* injector_ = nullptr;
  DeliveryTagger* mc_ = nullptr;
  std::vector<std::unique_ptr<sim::CpuWorker>> cpus_;
  std::vector<bool> alive_;
  // Revoked (at, from) queue pairs, packed via PairKey. Ordered set: the
  // membership layer iterates it on permission restore, and determinism
  // forbids unordered iteration. Empty unless fast failover revoked someone.
  std::set<uint64_t> revoked_;
  NackHandler nack_;
  uint64_t nacks_sent_ = 0;
  std::vector<sim::SimTime> egress_busy_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace ring::net

#endif  // RING_SRC_NET_FABRIC_H_
