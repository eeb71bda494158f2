#include "src/consensus/membership.h"

#include <cassert>

#include "src/obs/hub.h"

namespace ring::consensus {
namespace {
// Small control-plane message sizes (bytes on the wire).
constexpr uint64_t kHeartbeatBytes = 32;
constexpr uint64_t kConfigBytes = 256;
// A permission-revocation work request: QP number + access-flags update.
constexpr uint64_t kRevokeBytes = 32;
constexpr uint64_t kMicrosecondStagger = 1000;  // ns

constexpr uint64_t RoundKey(net::NodeId actor, net::NodeId victim) {
  return (static_cast<uint64_t>(actor) << 32) | victim;
}
}  // namespace

MembershipGroup::MembershipGroup(net::Fabric* fabric, uint32_t s, uint32_t d,
                                 uint32_t num_members, uint32_t groups)
    : fabric_(fabric) {
  const uint32_t n =
      num_members == 0 ? fabric->num_nodes() : num_members;
  const ClusterConfig initial = ClusterConfig::Initial(s, d, n, groups);
  agents_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto agent = std::make_unique<Agent>();
    agent->id = i;
    agent->config = initial;
    agent->last_seen.assign(n, 0);
    agent->is_leader = (i == initial.leader);
    agents_.push_back(std::move(agent));
  }
}

void MembershipGroup::Start() {
  assert(!started_);
  started_ = true;
  auto* simulator = fabric_->simulator();
  // Operations bouncing off dead or revoked peers NACK back to their issuer,
  // and the NACKs feed suspicion reports into revoke-then-promote. The
  // heartbeat machinery below is the backstop detector.
  fabric_->set_nack_handler(
      [this](net::NodeId issuer, net::NodeId dst, bool permission_revoked) {
        OnTransportNack(issuer, dst, permission_revoked);
      });
  for (auto& agent : agents_) {
    const net::NodeId id = agent->id;
    agent->last_leader_seen = simulator->now();
    for (net::NodeId peer = 0; peer < num_members(); ++peer) {
      agent->last_seen[peer] = simulator->now();
    }
    // Phase-staggered ticks: simultaneous election checks would let two
    // ranked candidates promote themselves in the same instant before
    // either's config broadcast lands.
    agent->ticking = true;
    simulator->After(simulator->params().heartbeat_period_ns +
                         id * 200 * kMicrosecondStagger,
                     [this, id] { HeartbeatTick(id); });
  }
}

void MembershipGroup::HeartbeatTick(net::NodeId node) {
  if (!fabric_->alive(node)) {
    agents_[node]->ticking = false;
    return;  // dead nodes stop ticking (Rejoin restarts the chain)
  }
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  if (fabric_->paused(node)) {
    // Gray failure: the wedged process neither sends nor checks anything,
    // but its timer survives the stall and resumes firing afterwards.
    simulator->After(simulator->params().heartbeat_period_ns,
                     [this, node] { HeartbeatTick(node); });
    return;
  }
  if (agent.config.failed[node]) {
    // Excluded from the cluster (restarted after a crash, or a gray failure
    // that outlived the detection window): a failed node must neither elect
    // nor be elected. Petition every member for readmission instead — only
    // an actual leader acts, and repeating each tick survives chaos-dropped
    // petitions. The epoch makes duplicated petitions harmless: once the
    // readmission bumps the epoch, stale copies are ignored.
    const uint64_t petition_epoch = agent.config.epoch;
    for (net::NodeId peer = 0; peer < num_members(); ++peer) {
      if (peer == node) {
        continue;
      }
      fabric_->Send(node, peer, kHeartbeatBytes,
                    [this, peer, node, petition_epoch] {
                      HandleJoinRequest(peer, node, petition_epoch);
                    });
    }
  } else if (agent.is_leader) {
    // Leader broadcasts liveness and checks followers.
    const uint64_t sender_epoch = agent.config.epoch;
    for (net::NodeId peer = 0; peer < num_members(); ++peer) {
      if (peer == node || agent.config.failed[peer]) {
        continue;
      }
      fabric_->Send(node, peer, kHeartbeatBytes,
                    [this, peer, node, sender_epoch] {
        Agent& receiver = *agents_[peer];
        if (receiver.config.epoch > sender_epoch &&
            receiver.config.leader != node) {
          // Deposed leader still heartbeating on a stale view (it was
          // paused through an election): push the newer config instead of
          // letting its heartbeats suppress anyone's failure detection.
          const ClusterConfig snapshot = receiver.config;
          fabric_->Send(peer, node, kConfigBytes, [this, node, snapshot] {
            ApplyConfig(node, snapshot);
          });
          return;
        }
        receiver.last_leader_seen = fabric_->simulator()->now();
      });
    }
    LeaderCheck(node);
  } else {
    // Follower heartbeats to its view of the leader and watches for leader
    // silence.
    const net::NodeId leader = agent.config.leader;
    const uint64_t sender_epoch = agent.config.epoch;
    fabric_->Send(node, leader, kHeartbeatBytes,
                  [this, leader, node, sender_epoch] {
      Agent& receiver = *agents_[leader];
      receiver.last_seen[node] = fabric_->simulator()->now();
      if (receiver.config.epoch > sender_epoch) {
        // Anti-entropy: the follower missed a config broadcast (lossy or
        // partitioned link); repair it from the heartbeat exchange.
        const ClusterConfig snapshot = receiver.config;
        fabric_->Send(leader, node, kConfigBytes, [this, node, snapshot] {
          ApplyConfig(node, snapshot);
        });
      }
    });
    FollowerCheck(node);
  }
  simulator->After(simulator->params().heartbeat_period_ns,
                   [this, node] { HeartbeatTick(node); });
}

void MembershipGroup::HandleJoinRequest(net::NodeId member, net::NodeId node,
                                        uint64_t petition_epoch) {
  Agent& agent = *agents_[member];
  if (!agent.is_leader || node >= num_members()) {
    return;  // only the leader readmits; stale petitions die here
  }
  if (!agent.config.failed[node]) {
    if (petition_epoch < agent.config.epoch) {
      // A chaos-duplicated (or long-delayed) petition from before the
      // readmission: acting on it would spuriously re-fail the node.
      return;
    }
    const int32_t slot = agent.config.slot_of_node[node];
    if (slot != kSpareSlot && agent.config.node_of_slot[slot] == node) {
      // Crash + restart inside one detection window: the cluster never saw
      // the death. Process the failure first so the memory-less node is
      // re-integrated through the promotion path rather than silently
      // serving from an empty store.
      HandleNodeFailure(member, node);
    } else {
      return;  // already a live member: duplicate petition
    }
  }
  agent.config.Readmit(node);
  agent.last_seen[node] = fabric_->simulator()->now();
  ++config_changes_;
  BroadcastConfig(member);
}

void MembershipGroup::Rejoin(net::NodeId node) {
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  // Memory-less restart: the process rebooted knowing only its id and its
  // boot-time view; it marks itself failed in that view (it must not vote or
  // lead) and petitions for readmission from its tick loop.
  agent.is_leader = false;
  agent.config.failed[node] = true;
  agent.last_leader_seen = simulator->now();
  for (net::NodeId peer = 0; peer < num_members(); ++peer) {
    agent.last_seen[peer] = simulator->now();
  }
  if (!agent.ticking) {
    agent.ticking = true;
    simulator->After(simulator->params().heartbeat_period_ns,
                     [this, node] { HeartbeatTick(node); });
  }
}

void MembershipGroup::NoteResumed(net::NodeId node) {
  if (node >= num_members()) {
    return;
  }
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  // The node stalled, not its peers: restart every detection clock so it
  // does not instantly declare the world dead (or elect itself) based on
  // silence it caused.
  agent.last_leader_seen = simulator->now();
  for (net::NodeId peer = 0; peer < num_members(); ++peer) {
    agent.last_seen[peer] = simulator->now();
  }
}

void MembershipGroup::LeaderCheck(net::NodeId node) {
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  const uint64_t timeout = simulator->params().failure_timeout_ns;
  for (net::NodeId peer = 0; peer < num_members(); ++peer) {
    if (peer == node || agent.config.failed[peer]) {
      continue;
    }
    if (simulator->now() - agent.last_seen[peer] > timeout) {
      HandleNodeFailure(node, peer);
    }
  }
}

void MembershipGroup::FollowerCheck(net::NodeId node) {
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  // Ranked election timeout: lower node ids preempt higher ones, so exactly
  // one candidate promotes itself in the common case.
  const uint64_t timeout =
      simulator->params().failure_timeout_ns +
      node * (simulator->params().heartbeat_period_ns / 2);
  if (simulator->now() - agent.last_leader_seen <= timeout) {
    return;
  }
  TakeOver(node);
}

// The leader is silent (or known dead): this node assumes leadership. Only
// safe to call when no live lower-id node exists in `node`'s view (they
// would have preempted it already).
void MembershipGroup::TakeOver(net::NodeId node) {
  Agent& agent = *agents_[node];
  auto* simulator = fabric_->simulator();
  const net::NodeId old_leader = agent.config.leader;
  // If the dead leader held a slot (or still backs the previous shape of an
  // in-flight resize), promote a spare into it.
  const int32_t spare = agent.config.FindSpare();
  if (!agent.config.failed[old_leader] &&
      agent.config.slot_of_node[old_leader] != kSpareSlot && spare >= 0) {
    agent.config.Promote(old_leader, static_cast<net::NodeId>(spare));
  } else if (!agent.config.failed[old_leader]) {
    agent.config.MarkFailed(old_leader);
  } else {
    ++agent.config.epoch;
  }
  agent.config.leader = node;
  agent.is_leader = true;
  for (net::NodeId peer = 0; peer < num_members(); ++peer) {
    agent.last_seen[peer] = simulator->now();
  }
  BroadcastConfig(node);
}

void MembershipGroup::HandleNodeFailure(net::NodeId leader,
                                        net::NodeId victim) {
  Agent& agent = *agents_[leader];
  if (agent.config.failed[victim]) {
    return;
  }
  // During a resize the victim may hold no current slot yet still back the
  // previous shape (a shrink's leaving node); that also needs a promotion so
  // unmigrated keys keep a live old-placement home.
  bool in_prev = false;
  if (agent.config.rebalancing()) {
    for (const net::NodeId n : agent.config.prev_node_of_slot) {
      in_prev |= n == victim;
    }
  }
  if (agent.config.slot_of_node[victim] == kSpareSlot && !in_prev) {
    // A spare died: just record it.
    agent.config.MarkFailed(victim);
  } else {
    const int32_t spare = agent.config.FindSpare();
    if (spare < 0) {
      agent.config.MarkFailed(victim);
    } else {
      agent.config.Promote(victim, static_cast<net::NodeId>(spare));
    }
  }
  ++config_changes_;
  BroadcastConfig(leader);
}

void MembershipGroup::BroadcastConfig(net::NodeId leader) {
  const ClusterConfig config = agents_[leader]->config;  // snapshot
  ApplyConfig(leader, config);
  for (net::NodeId peer = 0; peer < num_members(); ++peer) {
    if (peer == leader) {
      continue;
    }
    // §16: a fenced-but-live peer must still hear the epoch bump —
    // revocation only cuts its write path, and without the new config it
    // would keep serving reads for a slot it no longer owns until
    // readmission (ms away). Sends to genuinely dead peers just NACK back.
    fabric_->Send(leader, peer, kConfigBytes,
                  [this, peer, config] { ApplyConfig(peer, config); });
  }
}

void MembershipGroup::ApplyConfig(net::NodeId node,
                                  const ClusterConfig& config) {
  Agent& agent = *agents_[node];
  const bool newer =
      config.epoch > agent.config.epoch ||
      (config.epoch == agent.config.epoch &&
       config.leader < agent.config.leader);  // tie-break: lowest leader wins
  if (!newer && node != config.leader) {
    return;  // stale
  }
  agent.config = config;
  agent.is_leader = (config.leader == node);
  agent.last_leader_seen = fabric_->simulator()->now();
  // Readmission restores permissions: any member the adopted config shows
  // live again regains its queue pairs at this node. (A node the config
  // still marks failed stays fenced — its stale-lease writes keep NACKing
  // until a leader readmits it.)
  for (net::NodeId f = 0; f < num_members(); ++f) {
    if (!config.failed[f]) {
      fabric_->Restore(node, f);
    }
  }
  if (on_config_) {
    on_config_(node, agent.config);
  }
}

void MembershipGroup::InjectFailure(net::NodeId victim) {
  fabric_->Kill(victim);
}

void MembershipGroup::ForceDetect(net::NodeId victim) {
  fabric_->Kill(victim);
  ReportSuspect(victim);
}

// ---- Revoke-then-promote (§16): lease revocation + witness promotion ------

void MembershipGroup::ReportSuspect(net::NodeId suspect) {
  if (suspect >= num_members()) {
    return;
  }
  const net::NodeId leader = CurrentLeader();
  if (leader != suspect && fabric_->alive(leader)) {
    HandleSuspicion(leader, suspect);
    return;
  }
  // The suspect leads (or no live leader exists): hand the evidence to the
  // takeover candidate — the lowest live member that still trusts itself.
  for (net::NodeId n = 0; n < num_members(); ++n) {
    if (n != suspect && fabric_->alive(n) && !agents_[n]->config.failed[n]) {
      HandleSuspicion(n, suspect);
      return;
    }
  }
}

void MembershipGroup::OnTransportNack(net::NodeId observer, net::NodeId dst,
                                      bool permission_revoked) {
  if (permission_revoked) {
    // The observer's own permissions were revoked at `dst`: its write lease
    // is gone and the cluster has (or is about to have) moved on without it.
    // Step down in the local view and petition for readmission through the
    // normal join loop — counter-suspecting the witness would be exactly the
    // split-brain the lease exists to prevent.
    if (observer < num_members()) {
      Agent& agent = *agents_[observer];
      if (!agent.config.failed[observer]) {
        agent.is_leader = false;
        agent.config.failed[observer] = true;
      }
    }
    return;
  }
  if (dst >= num_members()) {
    return;  // clients are not failover subjects
  }
  if (observer < num_members()) {
    HandleSuspicion(observer, dst);
    return;
  }
  // A client observed the bounce. Clients take no part in membership, so the
  // evidence is relayed to the lowest live member, which acts on it there.
  for (net::NodeId m = 0; m < num_members(); ++m) {
    if (m == dst || !fabric_->alive(m)) {
      continue;
    }
    fabric_->Send(observer, m, kHeartbeatBytes,
                  [this, m, dst] { HandleSuspicion(m, dst); });
    return;
  }
}

void MembershipGroup::HandleSuspicion(net::NodeId member, net::NodeId suspect) {
  if (member >= num_members() || suspect >= num_members()) {
    return;
  }
  if (!fabric_->alive(member) || fabric_->paused(member)) {
    return;
  }
  Agent& agent = *agents_[member];
  if (agent.config.failed[member] || agent.config.failed[suspect]) {
    return;  // fenced members don't act; known-failed suspects are done
  }
  const net::NodeId leader = agent.config.leader;
  if (suspect == leader) {
    const net::NodeId cand = TakeoverCandidate(member, suspect);
    if (cand == member) {
      RevokeThenPromote(member, suspect, /*takeover=*/true);
    } else if (cand < num_members()) {
      fabric_->Send(member, cand, kHeartbeatBytes,
                    [this, cand, suspect] { HandleSuspicion(cand, suspect); });
    }
    return;
  }
  if (agent.is_leader) {
    RevokeThenPromote(member, suspect, /*takeover=*/false);
  } else {
    // Relay to the leader. If the leader is dead too, this Send bounces and
    // the resulting NACK re-enters HandleSuspicion with the leader as the
    // suspect — the chain self-corrects.
    fabric_->Send(member, leader, kHeartbeatBytes,
                  [this, leader, suspect] { HandleSuspicion(leader, suspect); });
  }
}

void MembershipGroup::RevokeThenPromote(net::NodeId actor, net::NodeId victim,
                                        bool takeover) {
  Agent& agent = *agents_[actor];
  if (agent.config.failed[victim] ||
      (takeover && agent.config.leader != victim)) {
    return;  // the view moved on while the evidence was in flight
  }
  if (!fast_inflight_.insert(RoundKey(actor, victim)).second) {
    return;  // a dead node NACKs every probe; one round handles them all
  }
  auto* simulator = fabric_->simulator();
  const sim::SimTime t0 = simulator->now();
  simulator->hub().recorder().Record(obs::RecKind::kFault, "fast_revoke",
                                     actor, 0, victim);
  const std::vector<net::NodeId> witnesses =
      WitnessesOf(agent.config, victim);
  if (witnesses.empty()) {
    FinishFastRound(actor, victim, takeover, t0);
    return;
  }
  auto remaining =
      std::make_shared<uint32_t>(static_cast<uint32_t>(witnesses.size()));
  for (const net::NodeId w : witnesses) {
    ++revocations_issued_;
    net::Fabric* fabric = fabric_;
    fabric_->Write(
        actor, w, kRevokeBytes,
        /*apply=*/[fabric, w, victim] { fabric->Revoke(w, victim); },
        /*on_complete=*/[this, actor, victim, takeover, remaining, t0] {
          if (--*remaining == 0) {
            FinishFastRound(actor, victim, takeover, t0);
          }
        });
  }
}

void MembershipGroup::FinishFastRound(net::NodeId actor, net::NodeId victim,
                                      bool takeover, sim::SimTime t0) {
  fast_inflight_.erase(RoundKey(actor, victim));
  if (!fabric_->alive(actor)) {
    return;  // the actor died mid-round; the heartbeat backstop covers it
  }
  Agent& agent = *agents_[actor];
  if (agent.config.failed[victim] || agent.config.failed[actor]) {
    return;  // the heartbeat backstop (or another actor) won the race
  }
  if (takeover) {
    if (agent.config.leader != victim) {
      return;
    }
    TakeOver(actor);
  } else {
    if (!agent.is_leader) {
      return;  // deposed while the revocations were in flight
    }
    HandleNodeFailure(actor, victim);
  }
  ++fast_failovers_;
  auto* simulator = fabric_->simulator();
  last_fast_failover_ns_ = simulator->now() - t0;
  obs::Hub& hub = simulator->hub();
  hub.recorder().Record(obs::RecKind::kFault, "fast_promote", actor, 0,
                        victim, simulator->now() - t0);
  if (hub.metrics_enabled()) {
    hub.metrics().Inc("failover.fast", 1, actor);
  }
}

std::vector<net::NodeId> MembershipGroup::WitnessesOf(
    const ClusterConfig& config, net::NodeId victim) const {
  std::vector<net::NodeId> witnesses;
  auto add = [&witnesses, victim](net::NodeId w) {
    if (w == victim) {
      return;
    }
    for (const net::NodeId have : witnesses) {
      if (have == w) {
        return;
      }
    }
    witnesses.push_back(w);
  };
  const int32_t slot = config.slot_of_node[victim];
  if (slot < 0) {
    return witnesses;  // a spare holds no lease: nothing to fence
  }
  // Coordinator duty: the victim's replica/parity homes intersect every
  // commit quorum of its shards (all d redundancy acks are required), so a
  // revocation there makes any stale-lease write un-committable. Exception:
  // Rep(1) has d == 1 redundant copies on one node but serves reads locally
  // without quorum — documented in DESIGN.md §16.
  for (const uint32_t shard :
       config.ShardsOfSlot(static_cast<uint32_t>(slot))) {
    const uint32_t g = config.GroupOfShard(shard);
    for (uint32_t j = 0; j < config.d; ++j) {
      add(config.node_of_slot[config.RedundantSlot(g, j)]);
    }
  }
  // Redundancy duty: the victim's stale acks and parity appends must not
  // complete anyone's quorum, so the coordinators of the groups it backs
  // fence it.
  for (uint32_t g = 0; g < config.groups; ++g) {
    bool backs_group = false;
    for (uint32_t j = 0; j < config.d; ++j) {
      backs_group |= config.node_of_slot[config.RedundantSlot(g, j)] == victim;
    }
    if (!backs_group) {
      continue;
    }
    for (uint32_t shard = g * config.s; shard < (g + 1) * config.s; ++shard) {
      add(config.CoordinatorOfShard(shard));
    }
  }
  return witnesses;
}

net::NodeId MembershipGroup::TakeoverCandidate(net::NodeId viewer,
                                               net::NodeId except) const {
  const Agent& agent = *agents_[viewer];
  for (net::NodeId n = 0; n < num_members(); ++n) {
    if (n == except || agent.config.failed[n] || !fabric_->alive(n)) {
      continue;
    }
    return n;
  }
  return num_members();
}

bool MembershipGroup::BeginAddServer(net::NodeId node) {
  const net::NodeId leader = CurrentLeader();
  Agent& agent = *agents_[leader];
  if (!fabric_->alive(leader) || !agent.is_leader ||
      !agent.config.BeginAddServer(node)) {
    return false;
  }
  ++config_changes_;
  BroadcastConfig(leader);
  return true;
}

bool MembershipGroup::BeginRemoveServer(uint32_t slot) {
  const net::NodeId leader = CurrentLeader();
  Agent& agent = *agents_[leader];
  if (!fabric_->alive(leader) || !agent.is_leader ||
      !agent.config.BeginRemoveServer(slot)) {
    return false;
  }
  ++config_changes_;
  BroadcastConfig(leader);
  return true;
}

bool MembershipGroup::CompleteRebalance() {
  const net::NodeId leader = CurrentLeader();
  Agent& agent = *agents_[leader];
  if (!fabric_->alive(leader) || !agent.is_leader ||
      !agent.config.rebalancing()) {
    return false;
  }
  agent.config.CompleteRebalance();
  ++config_changes_;
  BroadcastConfig(leader);
  return true;
}

net::NodeId MembershipGroup::CurrentLeader() const {
  // The authoritative leader is the live agent that believes it leads with
  // the highest epoch.
  net::NodeId best = 0;
  uint64_t best_epoch = 0;
  for (const auto& agent : agents_) {
    if (agent->is_leader && fabric_->alive(agent->id) &&
        agent->config.epoch >= best_epoch) {
      best = agent->id;
      best_epoch = agent->config.epoch;
    }
  }
  return best;
}

}  // namespace consensus
