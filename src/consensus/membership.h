// Membership, failure detection, leader election, and configuration
// replication (paper §5.5, DESIGN.md §16).
//
// Simplified DARE-style replicated state machine. A failure is handled by
// revoke-then-promote: an operation that bounces off a dead peer NACKs, the
// NACK becomes a suspicion report, and the leader revokes the suspect's
// write permissions at its redundancy witnesses with one-sided ops, then
// promotes a spare into its slot and replicates the new configuration epoch
// to all live nodes. Heartbeats are the backstop detector for failures no
// operation bounces off (a gray pause, a lost link): a node silent for
// `failure_timeout` is declared failed and a spare promoted directly, and if
// the leader goes silent the live node with the lowest id takes over after
// a ranked timeout and replicates a new epoch.
#ifndef RING_SRC_CONSENSUS_MEMBERSHIP_H_
#define RING_SRC_CONSENSUS_MEMBERSHIP_H_

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/consensus/config.h"
#include "src/net/fabric.h"

namespace ring::consensus {

class MembershipGroup {
 public:
  // Callback type: a node learned a new committed configuration.
  using ConfigCallback =
      std::function<void(net::NodeId self, const ClusterConfig& config)>;

  // `num_members` bounds the membership to the first nodes of the fabric
  // (s + d KVS slots plus spares); higher node ids are clients and take no
  // part in heartbeats or configuration. Defaults to every fabric node.
  MembershipGroup(net::Fabric* fabric, uint32_t s, uint32_t d,
                  uint32_t num_members = 0, uint32_t groups = 1);

  uint32_t num_members() const {
    return static_cast<uint32_t>(agents_.size());
  }

  // Begins heartbeat traffic. Call once after wiring callbacks.
  void Start();

  // The configuration as currently known by `node`.
  const ClusterConfig& ConfigView(net::NodeId node) const {
    return agents_[node]->config;
  }

  // Invoked on each node when it receives a newer configuration.
  void SetOnConfig(ConfigCallback cb) { on_config_ = std::move(cb); }

  // Fail-stop injection: kills the node on the fabric. Detection happens via
  // missed heartbeats.
  void InjectFailure(net::NodeId victim);

  // Crash-recovery: `node` restarted memory-less (fabric already revived).
  // It marks itself failed in its own stale view and petitions the cluster
  // for readmission each tick until a leader broadcasts a config that
  // includes it again — as a spare when its old slot was re-assigned, or
  // re-promoted into its own slot (walking the normal spare-recovery path)
  // when no spare had been available.
  void Rejoin(net::NodeId node);

  // Gray-failure resume: resets `node`'s failure-detection timers so the
  // stall it just experienced is not misread as everyone else's silence.
  void NoteResumed(net::NodeId node);

  // Benchmark aid: kills `victim` and reports it suspect at once, so its
  // revoke-then-promote round starts without waiting for an operation to
  // bounce off it (Fig. 12 measures recovery from the moment of detection).
  void ForceDetect(net::NodeId victim);

  // --- Revoke-then-promote (§16): lease revocation + witness promotion -----
  // External suspicion entry point (chaos `revoke` directive, tests): treat
  // `suspect` as failed *now* — the leader revokes its write permissions at
  // its redundancy witnesses with one-sided ops, bumps the epoch and
  // promotes a spare, whether or not the suspect is actually dead (a false
  // suspicion fences a live node out: its stale-lease writes NACK, and it
  // re-enters through the normal readmission petition).
  void ReportSuspect(net::NodeId suspect);

  // Revoke rounds completed (revoke round -> promotion). Failures only the
  // heartbeat backstop detects are handled without a round and not counted.
  uint64_t fast_failovers() const { return fast_failovers_; }
  // Span of the last completed revoke round, first revocation issued to
  // promotion applied (ns).
  uint64_t last_fast_failover_ns() const { return last_fast_failover_ns_; }
  // One-sided revocation operations issued by leaders/witness candidates.
  uint64_t revocations_issued() const { return revocations_issued_; }

  // Elastic membership (§13): applied on the current leader's agent as an
  // epoch-bumped transition and replicated through the normal config
  // broadcast; followers that miss it catch up via heartbeat anti-entropy.
  // Return false when the precondition fails (a resize already in flight,
  // node not a live spare, slot not a coordinator slot, no live leader).
  bool BeginAddServer(net::NodeId node);
  bool BeginRemoveServer(uint32_t slot);
  bool CompleteRebalance();

  net::NodeId CurrentLeader() const;

 private:
  struct Agent {
    net::NodeId id;
    ClusterConfig config;
    // Leader state: last heartbeat time per node.
    std::vector<sim::SimTime> last_seen;
    sim::SimTime last_leader_seen = 0;
    bool is_leader = false;
    // Whether this node's heartbeat-tick chain is scheduled. The chain dies
    // with the node; Rejoin restarts it exactly once.
    bool ticking = false;
  };

  void HeartbeatTick(net::NodeId node);
  void HandleJoinRequest(net::NodeId member, net::NodeId node,
                         uint64_t petition_epoch);
  void LeaderCheck(net::NodeId node);
  void FollowerCheck(net::NodeId node);
  void TakeOver(net::NodeId node);
  void HandleNodeFailure(net::NodeId leader, net::NodeId victim);
  void BroadcastConfig(net::NodeId leader);
  void ApplyConfig(net::NodeId node, const ClusterConfig& config);

  // ---- revoke-then-promote internals (§16) ----
  // Fabric NACK observer: `observer`'s operation bounced off `dst`.
  void OnTransportNack(net::NodeId observer, net::NodeId dst,
                       bool permission_revoked);
  // A member holds evidence that `suspect` is unreachable; act on it or
  // relay it towards whoever can (the leader, or the takeover candidate
  // when the leader itself is the suspect).
  void HandleSuspicion(net::NodeId member, net::NodeId suspect);
  // One one-sided revocation of `victim`'s permissions per witness, issued
  // by `actor`; then FinishFastRound. With `takeover`, `victim` is the
  // leader and `actor` the takeover candidate, which then runs TakeOver;
  // otherwise `actor` leads and runs HandleNodeFailure.
  void RevokeThenPromote(net::NodeId actor, net::NodeId victim, bool takeover);
  // Second phase of a revoke round, entered once every witness completion
  // arrived. `t0` is the revoke-round start (failover span bookkeeping).
  void FinishFastRound(net::NodeId actor, net::NodeId victim, bool takeover,
                       sim::SimTime t0);
  // Redundancy witnesses of `victim` under `config`: the nodes whose
  // completion queues every commit quorum of the victim intersects. For a
  // coordinator these are the d redundant-slot nodes of its group(s) (2
  // one-sided ops in the paper-default d = 2); for a redundant-slot node,
  // the coordinators of the groups it backs.
  std::vector<net::NodeId> WitnessesOf(const ClusterConfig& config,
                                       net::NodeId victim) const;
  // Lowest live non-failed member other than `except` in `viewer`'s view,
  // or num_members() when none exists.
  net::NodeId TakeoverCandidate(net::NodeId viewer, net::NodeId except) const;

  net::Fabric* fabric_;
  std::vector<std::unique_ptr<Agent>> agents_;
  ConfigCallback on_config_;
  bool started_ = false;
  // ---- revoke-round state ----
  // In-flight revoke rounds, keyed (actor << 32) | victim: dedups the NACK
  // storm a dead node causes (every probe bounces) into one round.
  std::set<uint64_t> fast_inflight_;
  uint64_t fast_failovers_ = 0;
  uint64_t last_fast_failover_ns_ = 0;
  uint64_t revocations_issued_ = 0;
};

}  // namespace ring::consensus

#endif  // RING_SRC_CONSENSUS_MEMBERSHIP_H_
