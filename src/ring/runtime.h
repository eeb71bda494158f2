// RingRuntime: wiring of one simulated Ring deployment — simulator, fabric,
// membership, memgest registry, the server objects, and the client
// endpoints servers reply to.
#ifndef RING_SRC_RING_RUNTIME_H_
#define RING_SRC_RING_RUNTIME_H_

#include <memory>
#include <vector>

#include "src/consensus/membership.h"
#include "src/fault/fault.h"
#include "src/net/fabric.h"
#include "src/ring/registry.h"
#include "src/ring/server.h"
#include "src/sim/simulator.h"

namespace ring {

class RingClient;

struct RingOptions {
  uint32_t s = 3;        // coordinator shards per memgest group
  uint32_t d = 2;        // redundant slots
  // Rotated memgest groups (paper §5.4): g > 1 spreads coordinator, replica
  // and parity roles round-robin over the s+d slots, balancing CPU and
  // memory. Key space partitions into groups*s shards.
  uint32_t groups = 1;
  uint32_t spares = 0;   // standby nodes
  uint32_t clients = 1;  // client endpoints (fabric nodes after the servers)
  uint64_t seed = 1;
  sim::SimParams params = sim::kDefaultParams;
  uint64_t stripe_unit = 4096;
  // Remove superseded key versions after every commit (paper §5.2: "old
  // versions are removed from the system periodically. It can be tuned to
  // trigger removing ... after every committed put"). Disabling keeps every
  // version (at a memory cost) — see bench/ablation_gc_policy.
  bool gc_old_versions = true;
  // Multiversion retention depth ν (§16): with gc_old_versions on, the
  // commit-time GC keeps the ν newest *committed* versions per key below
  // the newly committed one instead of collecting them all, so
  // ReadMode::kNonBlocking always finds a recent committed version to serve
  // without parking. Bounded: the (ν+1)-th-newest committed version and
  // older are collected exactly as before (redundancy GC notices follow).
  // 0 (the default) disables retention — GC behaviour and schedules stay
  // byte-identical to the seed.
  uint32_t multiversion_depth = 0;
  // Re-populate a promoted node's object data in the background after
  // metadata recovery. When false, data is reconstructed on demand only
  // (§5.3: "data recovery can be postponed and only recovered on demand,
  // which is quite important for expensive erasure codes").
  bool background_data_recovery = true;
  // Enable the happens-before race detector (src/analysis) for this
  // deployment, equivalent to RING_ANALYZE=race. Observation only: the
  // simulated schedule is unchanged.
  bool analyze_races = false;
  // Chaos schedule (src/fault): link faults and node events injected into
  // the fabric. An empty plan creates no injector and leaves every code
  // path byte-identical to a fault-free run.
  fault::FaultPlan fault_plan;
  // Seed of the injector's private random stream (fault coin flips must not
  // perturb the simulator's main stream). Combined with `seed`.
  uint64_t fault_seed = 0;
  // Regression switches re-introducing the three protocol bugs chaos fuzzing
  // found in PR 5, for the ring-mc known-bug rediscovery gate (tests only;
  // every flag defaults to the fixed behaviour).
  struct TestOnlyBugs {
    // Bug 1: never re-send unacked replica appends — a single lost append
    // wedges the write forever instead of being retried.
    bool no_write_retransmit = false;
    // Bug 2: recover shard metadata from one alive holder instead of the
    // union of all of them — a holder that missed an append loses committed
    // entries on promotion.
    bool single_source_recovery = false;
    // Bug 3: skip the commit-time revalidation of a resolved get — a move/GC
    // that relocated the value between resolve and copy serves stale bytes.
    bool no_gc_revalidate = false;
  };
  TestOnlyBugs test_bugs;
};

class RingRuntime {
 public:
  explicit RingRuntime(const RingOptions& options);

  const RingOptions& options() const { return options_; }
  sim::Simulator& simulator() { return simulator_; }
  net::Fabric& fabric() { return fabric_; }
  consensus::MembershipGroup& membership() { return membership_; }
  MemgestRegistry& registry() { return registry_; }

  uint32_t num_server_nodes() const {
    return options_.s + options_.d + options_.spares;
  }
  net::NodeId client_node(uint32_t i) const { return num_server_nodes() + i; }

  // Server object for a server node id; nullptr for client ids.
  RingServer* server(net::NodeId id) {
    return id < servers_.size() ? servers_[id].get() : nullptr;
  }

  // Client endpoint at a client node id: servers deliver every reply
  // through it. nullptr for server ids and for endpoints no RingClient
  // holds (a reply to one is dropped, like one to a dead node).
  RingClient* client(net::NodeId id) const {
    const uint64_t i = id - static_cast<uint64_t>(num_server_nodes());
    return id >= num_server_nodes() && i < clients_.size() ? clients_[i]
                                                           : nullptr;
  }
  // RingClient's constructor attaches it to its node; its destructor passes
  // nullptr.
  void AttachClient(net::NodeId id, RingClient* client);

  // The node currently acting as leader (membership's view).
  net::NodeId leader_node() const { return membership_.CurrentLeader(); }

  // The fault injector, or nullptr when the options carried no plan.
  fault::FaultInjector* injector() { return injector_.get(); }

  // Crash-recovery entry point (also driven by FaultPlan `recover` events):
  // revives `node` on the fabric as a memory-less restart and walks it back
  // through membership readmission and the spare-promotion recovery path.
  void RestartNode(net::NodeId node);

 private:
  RingOptions options_;
  sim::Simulator simulator_;
  net::Fabric fabric_;
  consensus::MembershipGroup membership_;
  MemgestRegistry registry_;
  std::vector<std::unique_ptr<RingServer>> servers_;
  // Indexed by client node id - num_server_nodes().
  std::vector<RingClient*> clients_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace ring

#endif  // RING_SRC_RING_RUNTIME_H_
