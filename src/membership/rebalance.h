// Elastic cluster membership (§13): the control plane that grows or shrinks
// a running deployment online.
//
// A resize is a two-phase, epoch-bumped ClusterConfig transition replicated
// through the existing consensus agent: BeginAddServer/BeginRemoveServer
// switches the cluster to the new shape while the previous shape stays live
// for routing, and CompleteRebalance retires it once no key is served at the
// old placement anymore. In between, the RebalanceCoordinator drives the
// drain in the background:
//
//   scan    — every server reports the keys it still serves as old-shape
//             coordinator (idempotent, bounded batches),
//   migrate — each reported key is handed over through the server-side
//             moved-marker + install protocol (per-key linearizable; see
//             src/ring/server_rebalance.cc), paced by the policy mover's
//             token bucket so migration traffic stays within a budget,
//   verify  — re-scan until a clean empty round, then complete.
//
// The driver is anchored at the *current* leader for every round: a
// coordinator failover mid-drive just re-anchors the next round, and because
// scans and migrates are idempotent (the durable markers survive crashes)
// the drain resumes where it left off.
#ifndef RING_SRC_MEMBERSHIP_REBALANCE_H_
#define RING_SRC_MEMBERSHIP_REBALANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/policy/mover.h"
#include "src/ring/cluster.h"

namespace ring::membership {

// Pure placement arithmetic: what a resize transition will move, computed
// from the configuration alone before any traffic is generated.
class RebalancePlanner {
 public:
  struct Plan {
    uint32_t old_s = 0;
    uint32_t new_s = 0;
    uint64_t epoch = 0;  // config epoch of the transition
    // Old-shape shards whose resident keys must be handed over (all of
    // them: h(key) mod groups*s changes with s) and the distinct nodes
    // serving them — the scan targets.
    std::vector<uint32_t> source_shards;
    std::vector<net::NodeId> source_nodes;
    // Expected fraction of keys whose serving *node* changes; the rest
    // re-encode in place on their unchanged owner (no network hop).
    double moved_fraction = 0.0;
  };
  // Meaningful only while config.rebalancing(); returns an empty plan
  // otherwise.
  static Plan Compute(const consensus::ClusterConfig& config);
};

struct RebalanceOptions {
  // Token-bucket rate of per-key migrations (reuses policy::Mover).
  double keys_per_sec = 50000.0;
  // Give up after this many scan rounds; 0 = keep going (chaos runs recover
  // eventually, and the simulator's event budget bounds runaway drivers).
  uint32_t max_rounds = 0;
};

struct RebalanceStats {
  // Folded from the per-server counters over the transition window.
  uint64_t keys_moved = 0;
  uint64_t keys_reencoded = 0;
  uint64_t bytes_moved = 0;
  uint64_t installs = 0;
  // Driver-side progress.
  uint64_t scan_rounds = 0;
  uint64_t migrates_issued = 0;
  uint64_t migrate_timeouts = 0;
  uint64_t leader_moves = 0;  // coordinator failovers survived mid-drive
  sim::SimTime start_ns = 0;
  sim::SimTime end_ns = 0;
};

// Drives one resize transition end to end. Control-plane bookkeeping runs in
// zero simulated time; all simulated traffic is the scans, migrates and
// installs themselves, issued from the current leader node.
class RebalanceCoordinator {
 public:
  RebalanceCoordinator(RingCluster* cluster, RebalanceOptions options = {});

  // Grow s -> s+1: `node` (a live spare) becomes the new coordinator slot.
  // Adopts the new geometry in the memgest catalogue, replicates the config
  // transition, then starts the background drain. False when preconditions
  // fail (resize in flight, node not a live spare, no live leader, or a
  // memgest cannot exist at the new shape).
  bool AddServer(net::NodeId node);
  // Shrink s -> s-1: coordinator slot `slot` leaves the shape; its node
  // keeps serving old-placement reads until the drain finishes, then
  // returns to the spare pool.
  bool RemoveServer(uint32_t slot);

  bool active() const { return active_; }
  bool failed() const { return failed_; }
  const RebalanceStats& stats() const { return stats_; }
  const RebalancePlanner::Plan& plan() const { return plan_; }

 private:
  bool Engage(const char* what, uint64_t detail);
  void PumpScan();
  void ArmPump(sim::SimTime delay);
  void OnScanReply(uint64_t round, net::NodeId node, std::vector<Key> keys);
  void CloseRound();
  void IssueMigrate(const Key& key,
                    std::function<void(Status, Version)> done);
  void FinishMigrate(const Key& key, uint64_t ticket, const Status& s);
  bool SourcesCaughtUp();
  void TryComplete();
  void Finish(bool ok);
  void FoldServerCounters(uint64_t* moved, uint64_t* reencoded,
                          uint64_t* bytes, uint64_t* installs);
  RingRuntime& rt() { return cluster_->runtime(); }
  sim::Simulator& simulator() { return cluster_->simulator(); }
  obs::Hub& hub() { return cluster_->simulator().hub(); }

  RingCluster* cluster_;
  RebalanceOptions options_;
  // Lifetime token: every timer and reply callback captures a weak reference
  // and no-ops once the coordinator is destroyed — a stack coordinator can
  // die with timeout timers still queued in the simulator.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  policy::Mover mover_;  // reused token bucket; issuer -> IssueMigrate
  RebalancePlanner::Plan plan_;
  RebalanceStats stats_;
  bool active_ = false;
  bool failed_ = false;
  bool pump_armed_ = false;
  uint64_t begin_epoch_ = 0;
  net::NodeId last_leader_ = 0;

  uint64_t round_ = 0;  // scan-round generation (fences late replies)
  uint32_t scans_outstanding_ = 0;
  bool round_complete_ = true;
  std::map<Key, net::NodeId> source_of_;  // key -> node that reported it
  std::map<Key, uint64_t> inflight_;      // key -> migrate ticket
  std::map<uint64_t, std::function<void(Status, Version)>> waiting_;
  uint64_t next_ticket_ = 1;
  // Counter baselines at Engage, so stats_ reports transition deltas.
  uint64_t base_moved_ = 0;
  uint64_t base_reencoded_ = 0;
  uint64_t base_bytes_ = 0;
  uint64_t base_installs_ = 0;
};

}  // namespace ring::membership

#endif  // RING_SRC_MEMBERSHIP_REBALANCE_H_
