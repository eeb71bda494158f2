#include "src/membership/rebalance.h"

#include <set>
#include <utility>

namespace ring::membership {
namespace {

// Simulated wire sizes (shared convention with the ring servers).
constexpr uint64_t kSmallMsgBytes = 64;
// Migration pacing beyond the keys/sec rate (policy::Mover semantics).
constexpr double kBurst = 8.0;
constexpr uint32_t kMaxConcurrent = 4;
constexpr uint32_t kMaxRetries = 6;
constexpr sim::SimTime kRetryBackoffNs = 500 * sim::kMicrosecond;
// One scan reports at most this many keys per node (bounds the reply
// message); the driver keeps scanning until a clean empty round.
constexpr uint32_t kScanBatch = 512;
// A scan round without all replies, or a migrate without an ack, is
// abandoned after this long and retried via the next round.
constexpr sim::SimTime kScanTimeoutNs = 10 * sim::kMillisecond;
constexpr sim::SimTime kMigrateTimeoutNs = 5 * sim::kMillisecond;
// Delay between a drained round and the verify re-scan (also the retry
// cadence while a source node is mid-recovery).
constexpr sim::SimTime kRescanDelayNs = 2 * sim::kMillisecond;

}  // namespace

// --- RebalancePlanner ------------------------------------------------------

RebalancePlanner::Plan RebalancePlanner::Compute(
    const consensus::ClusterConfig& config) {
  Plan plan;
  if (!config.rebalancing()) {
    return plan;
  }
  const consensus::Placement cur = config.Current();
  const consensus::Placement prev = config.Previous();
  plan.old_s = prev.s;
  plan.new_s = cur.s;
  plan.epoch = config.epoch;
  std::set<net::NodeId> nodes;
  for (uint32_t shard = 0; shard < prev.num_shards(); ++shard) {
    plan.source_shards.push_back(shard);
    nodes.insert(prev.CoordinatorOfShard(shard));
  }
  plan.source_nodes.assign(nodes.begin(), nodes.end());
  // With a uniform key hash the old and new shard indices of a key are
  // independent draws, so the chance its serving node is unchanged is the
  // collision mass of the two coordinator distributions.
  double stay = 0.0;
  for (uint32_t i = 0; i < prev.num_shards(); ++i) {
    for (uint32_t j = 0; j < cur.num_shards(); ++j) {
      if (prev.CoordinatorOfShard(i) == cur.CoordinatorOfShard(j)) {
        stay += 1.0;
      }
    }
  }
  stay /= static_cast<double>(prev.num_shards()) * cur.num_shards();
  plan.moved_fraction = 1.0 - stay;
  return plan;
}

// --- RebalanceCoordinator --------------------------------------------------

RebalanceCoordinator::RebalanceCoordinator(RingCluster* cluster,
                                           RebalanceOptions options)
    : cluster_(cluster),
      options_(options),
      mover_(cluster, [this] {
        policy::MoverOptions mo;
        mo.moves_per_sec = options_.keys_per_sec;
        mo.burst = kBurst;
        mo.max_concurrent = kMaxConcurrent;
        mo.max_retries = kMaxRetries;
        mo.retry_backoff_ns = kRetryBackoffNs;
        mo.issuer = [this](const Key& key, MemgestId,
                           std::function<void(Status, Version)> done) {
          IssueMigrate(key, std::move(done));
        };
        return mo;
      }()) {
  mover_.set_done_hook([this](const Key& key, MemgestId, const Status&) {
    // Terminal outcome (success or retries exhausted). Failed keys are
    // re-discovered by the next scan; either way this key's slot is free.
    source_of_.erase(key);
    if (active_ && scans_outstanding_ == 0 && mover_.pending_keys() == 0) {
      ArmPump(kRescanDelayNs);
    }
  });
}

bool RebalanceCoordinator::AddServer(net::NodeId node) {
  if (active_) {
    return false;
  }
  RingRuntime& r = rt();
  const consensus::ClusterConfig& cfg =
      r.membership().ConfigView(r.leader_node());
  if (cfg.rebalancing()) {
    return false;
  }
  const uint32_t old_s = cfg.s;
  // Catalogue first: every erasure-coded memgest needs a geometry for the
  // new shape before any server can encode under it.
  if (!r.registry().Resize(old_s + 1).ok()) {
    return false;
  }
  if (!r.membership().BeginAddServer(node)) {
    (void)r.registry().Resize(old_s);  // roll back to the parked geometry
    return false;
  }
  return Engage("cluster_grow", node);
}

bool RebalanceCoordinator::RemoveServer(uint32_t slot) {
  if (active_) {
    return false;
  }
  RingRuntime& r = rt();
  const consensus::ClusterConfig& cfg =
      r.membership().ConfigView(r.leader_node());
  if (cfg.rebalancing() || cfg.s <= 1) {
    return false;
  }
  const uint32_t old_s = cfg.s;
  if (!r.registry().Resize(old_s - 1).ok()) {
    return false;  // some memgest needs k <= s at the new shape
  }
  if (!r.membership().BeginRemoveServer(slot)) {
    (void)r.registry().Resize(old_s);
    return false;
  }
  return Engage("cluster_shrink", slot);
}

bool RebalanceCoordinator::Engage(const char* what, uint64_t detail) {
  const consensus::ClusterConfig& cfg =
      rt().membership().ConfigView(rt().leader_node());
  begin_epoch_ = cfg.epoch;
  plan_ = RebalancePlanner::Compute(cfg);
  stats_ = {};
  stats_.start_ns = simulator().now();
  FoldServerCounters(&base_moved_, &base_reencoded_, &base_bytes_,
                     &base_installs_);
  active_ = true;
  failed_ = false;
  last_leader_ = rt().leader_node();
  hub().recorder().Record(obs::RecKind::kPhase, what, last_leader_,
                          hub().current_op(), detail, cfg.epoch);
  hub().metrics().Inc("rebalance.transitions", 1, last_leader_);
  hub().metrics().SetGauge("rebalance.active", 1, last_leader_);
  // Let the config broadcast land before the first scan round.
  ArmPump(kRescanDelayNs);
  return true;
}

void RebalanceCoordinator::ArmPump(sim::SimTime delay) {
  if (pump_armed_ || !active_) {
    return;
  }
  pump_armed_ = true;
  simulator().After(delay, [this, w = std::weak_ptr<char>(alive_)] {
    if (w.expired()) {
      return;
    }
    PumpScan();
  });
}

void RebalanceCoordinator::PumpScan() {
  pump_armed_ = false;
  if (!active_) {
    return;
  }
  if (options_.max_rounds != 0 && stats_.scan_rounds >= options_.max_rounds) {
    Finish(false);
    return;
  }
  // Anchored at the *current* leader: a coordinator failover mid-drive
  // re-anchors here, and the idempotent scan/migrate protocol resumes the
  // drain from the durable markers.
  const net::NodeId leader = rt().leader_node();
  if (leader != last_leader_) {
    ++stats_.leader_moves;
    last_leader_ = leader;
    hub().recorder().Record(obs::RecKind::kPhase, "rebalance_reanchor",
                            leader, hub().current_op(), stats_.scan_rounds);
  }
  ++stats_.scan_rounds;
  const uint64_t round = ++round_;
  scans_outstanding_ = 0;
  round_complete_ = true;
  const consensus::ClusterConfig& lead_cfg =
      rt().membership().ConfigView(leader);
  for (net::NodeId node = 0; node < rt().num_server_nodes(); ++node) {
    RingServer* srv = rt().server(node);
    if (srv == nullptr) {
      continue;
    }
    if (node < lead_cfg.failed.size() && lead_cfg.failed[node]) {
      // Excluded from the cluster: its slots are re-pointed and its keys
      // recovered elsewhere. A scan would never be answered and would keep
      // every round incomplete forever. (A dead-but-undetected node still
      // times the round out — correct: its keys are unaccounted for.)
      continue;
    }
    ++scans_outstanding_;
    RingServer::RebalanceScan msg;
    msg.max_keys = kScanBatch;
    msg.requester = leader;
    msg.reply = [this, w = std::weak_ptr<char>(alive_), round,
                 node](std::vector<Key> keys) {
      if (w.expired()) {
        return;
      }
      OnScanReply(round, node, std::move(keys));
    };
    rt().fabric().Send(leader, node, kSmallMsgBytes,
                       [srv, msg = std::move(msg)]() mutable {
                         srv->HandleRebalanceScan(std::move(msg));
                       });
  }
  // Replies from crashed or partitioned nodes never arrive: close the round
  // by timeout. Collected keys still migrate, but an incomplete round can
  // never be the clean empty round that ends the transition.
  simulator().After(kScanTimeoutNs,
                    [this, w = std::weak_ptr<char>(alive_), round] {
    if (w.expired()) {
      return;
    }
    if (!active_ || round_ != round || scans_outstanding_ == 0) {
      return;
    }
    scans_outstanding_ = 0;
    round_complete_ = false;
    CloseRound();
  });
}

void RebalanceCoordinator::OnScanReply(uint64_t round, net::NodeId node,
                                       std::vector<Key> keys) {
  if (!active_ || round != round_ || scans_outstanding_ == 0) {
    return;  // a late reply of an abandoned round; the next scan re-reports
  }
  --scans_outstanding_;
  if (keys.size() >= kScanBatch) {
    round_complete_ = false;  // truncated report: more keys remain
  }
  for (Key& key : keys) {
    if (mover_.Pending(key)) {
      continue;  // queued, in flight, or backing off between retries
    }
    source_of_[key] = node;
    mover_.Enqueue(key, kDefaultMemgest);
  }
  if (scans_outstanding_ == 0) {
    CloseRound();
  }
}

void RebalanceCoordinator::CloseRound() {
  hub().metrics().SetGauge(
      "rebalance.pending_keys",
      static_cast<int64_t>(mover_.pending_keys()), last_leader_);
  if (mover_.pending_keys() != 0) {
    mover_.Tick();  // drain; the done hook arms the next round when empty
    return;
  }
  if (round_complete_ && SourcesCaughtUp()) {
    TryComplete();
    return;
  }
  ArmPump(kRescanDelayNs);
}

void RebalanceCoordinator::IssueMigrate(
    const Key& key, std::function<void(Status, Version)> done) {
  const auto src_it = source_of_.find(key);
  if (src_it == source_of_.end()) {
    // Reported source lost (e.g. cleared by a reset); the next scan
    // re-reports the key with a fresh source.
    done(UnavailableError("migration source unknown"), 0);
    return;
  }
  const net::NodeId src = src_it->second;
  RingServer* srv = rt().server(src);
  if (srv == nullptr) {
    done(UnavailableError("migration source gone"), 0);
    return;
  }
  const uint64_t ticket = next_ticket_++;
  inflight_[key] = ticket;
  waiting_[ticket] = std::move(done);
  ++stats_.migrates_issued;
  const net::NodeId leader = rt().leader_node();
  RingServer::MigrateKey msg;
  msg.key = key;
  msg.requester = leader;
  msg.reply = [this, w = std::weak_ptr<char>(alive_), key, ticket](Status s) {
    if (w.expired()) {
      return;
    }
    FinishMigrate(key, ticket, s);
  };
  rt().fabric().Send(leader, src, kSmallMsgBytes + key.size(),
                     [srv, msg = std::move(msg)]() mutable {
                       srv->HandleMigrateKey(std::move(msg));
                     });
  simulator().After(kMigrateTimeoutNs,
                    [this, w = std::weak_ptr<char>(alive_), key, ticket] {
    if (w.expired()) {
      return;
    }
    auto it = inflight_.find(key);
    if (it == inflight_.end() || it->second != ticket) {
      return;  // acked in time
    }
    ++stats_.migrate_timeouts;
    FinishMigrate(key, ticket, TimeoutError("migrate unacknowledged"));
  });
}

void RebalanceCoordinator::FinishMigrate(const Key& key, uint64_t ticket,
                                         const Status& s) {
  auto it = inflight_.find(key);
  if (it == inflight_.end() || it->second != ticket) {
    return;  // the timeout already settled this attempt; drop the late ack
  }
  inflight_.erase(it);
  auto wit = waiting_.find(ticket);
  if (wit == waiting_.end()) {
    return;
  }
  auto done = std::move(wit->second);
  waiting_.erase(wit);
  done(s, 0);  // hands control back to the mover (retry/abort/complete)
}

bool RebalanceCoordinator::SourcesCaughtUp() {
  // A clean empty round only ends the transition when every node holding a
  // slot in either shape has applied the transition epoch and serves: a
  // node mid-promotion is about to re-adopt old-shape keys the scan missed.
  const consensus::ClusterConfig& lead =
      rt().membership().ConfigView(rt().leader_node());
  if (!lead.rebalancing()) {
    return true;
  }
  const consensus::Placement prev = lead.Previous();
  for (net::NodeId node = 0; node < rt().num_server_nodes(); ++node) {
    const bool holds_slot =
        (node < lead.slot_of_node.size() && lead.slot_of_node[node] >= 0) ||
        prev.SlotOfNode(node) != consensus::kSpareSlot;
    if (!holds_slot) {
      continue;
    }
    if (node < lead.failed.size() && lead.failed[node]) {
      return false;  // slot dark: a promotion must fill it first
    }
    if (rt().membership().ConfigView(node).epoch < begin_epoch_) {
      return false;  // config broadcast has not landed there yet
    }
    RingServer* srv = rt().server(node);
    if (srv == nullptr || !srv->serving()) {
      return false;  // mid-recovery
    }
  }
  return true;
}

void RebalanceCoordinator::TryComplete() {
  // CompleteRebalance fails benignly during a leader election; re-verify
  // and retry next round.
  if (!rt().membership().CompleteRebalance()) {
    ArmPump(kRescanDelayNs);
    return;
  }
  Finish(true);
}

void RebalanceCoordinator::Finish(bool ok) {
  active_ = false;
  failed_ = !ok;
  stats_.end_ns = simulator().now();
  uint64_t moved = 0;
  uint64_t reencoded = 0;
  uint64_t bytes = 0;
  uint64_t installs = 0;
  FoldServerCounters(&moved, &reencoded, &bytes, &installs);
  stats_.keys_moved = moved - base_moved_;
  stats_.keys_reencoded = reencoded - base_reencoded_;
  stats_.bytes_moved = bytes - base_bytes_;
  stats_.installs = installs - base_installs_;
  source_of_.clear();
  inflight_.clear();
  waiting_.clear();
  const net::NodeId leader = rt().leader_node();
  hub().recorder().Record(obs::RecKind::kPhase,
                          ok ? "rebalance_complete" : "rebalance_failed",
                          leader, hub().current_op(), stats_.keys_moved,
                          stats_.bytes_moved);
  hub().metrics().Inc(ok ? "rebalance.completed" : "rebalance.failed", 1,
                      leader);
  hub().metrics().SetGauge("rebalance.active", 0, leader);
  hub().metrics().SetGauge("rebalance.pending_keys", 0, leader);
}

void RebalanceCoordinator::FoldServerCounters(uint64_t* moved,
                                              uint64_t* reencoded,
                                              uint64_t* bytes,
                                              uint64_t* installs) {
  *moved = *reencoded = *bytes = *installs = 0;
  for (net::NodeId node = 0; node < rt().num_server_nodes(); ++node) {
    if (const RingServer* srv = rt().server(node); srv != nullptr) {
      *moved += srv->counters().keys_migrated;
      *reencoded += srv->counters().keys_reencoded;
      *bytes += srv->counters().bytes_moved;
      *installs += srv->counters().installs;
    }
  }
}

}  // namespace ring::membership
