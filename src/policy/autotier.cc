#include "src/policy/autotier.h"

namespace ring::policy {

AutoTierManager::AutoTierManager(RingCluster* cluster, std::vector<Tier> tiers,
                                 AutoTierOptions options)
    : cluster_(cluster),
      options_(options),
      engine_(std::move(tiers)),
      mover_(cluster, [&options, cluster] {
        // Rebalance-aware admission (§13): re-tiering traffic yields while
        // an elastic resize drains, so the migration keeps the whole
        // token-bucket budget. Callers may still install their own gate.
        MoverOptions mo = options.mover;
        if (!mo.admit) {
          mo.admit = [cluster] {
            RingRuntime& rt = cluster->runtime();
            return !rt.membership()
                        .ConfigView(rt.leader_node())
                        .rebalancing();
          };
        }
        return mo;
      }()) {
  // Tap every client endpoint; moves issued by the mover itself flow through
  // the same tap, which is how placements_ learns their outcome targets.
  const uint32_t clients = cluster_->runtime().options().clients;
  for (uint32_t i = 0; i < clients; ++i) {
    cluster_->client(i).set_access_observer(
        [this](const Key& key, obs::OpKind op, MemgestId memgest,
               uint64_t bytes) { Observe(key, op, memgest, bytes); });
  }
}

void AutoTierManager::Observe(const Key& key, obs::OpKind op,
                              MemgestId memgest, uint64_t bytes) {
  switch (op) {
    case obs::OpKind::kPut: {
      tracker_.Record(key);
      KeyState& state = placements_[key];
      state.memgest = memgest == kDefaultMemgest
                          ? cluster_->runtime().registry().default_id()
                          : memgest;
      state.bytes = bytes;
      break;
    }
    case obs::OpKind::kGet:
      tracker_.Record(key);
      break;
    case obs::OpKind::kMove: {
      // Re-tiering is not an access — only the placement changes.
      auto it = placements_.find(key);
      if (it != placements_.end()) {
        it->second.memgest = memgest;
      }
      break;
    }
    case obs::OpKind::kDelete:
      placements_.erase(key);
      break;
    default:
      break;
  }
}

void AutoTierManager::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ScheduleTick();
}

void AutoTierManager::Stop() {
  running_ = false;
  ++generation_;  // orphan any timer already scheduled
}

void AutoTierManager::ScheduleTick() {
  const uint64_t gen = generation_;
  cluster_->simulator().After(options_.epoch_ns, [this, gen] {
    if (!running_ || gen != generation_) {
      return;
    }
    Tick();
    ScheduleTick();
  });
}

void AutoTierManager::Tick() {
  const sim::SimTime start = cluster_->simulator().now();
  tracker_.EndEpoch();
  tracker_.ForEachTracked([this](const Key& key, double temperature) {
    auto it = placements_.find(key);
    if (it == placements_.end()) {
      return;  // never saw a put: not ours to manage
    }
    const auto desired = engine_.Decide(temperature, it->second.memgest);
    if (desired.has_value() && *desired != it->second.memgest &&
        !mover_.Pending(key)) {
      mover_.Enqueue(key, *desired);
    }
  });
  mover_.Tick();
  UpdateGauges();
  obs::Hub& hub = cluster_->simulator().hub();
  hub.tracer().Record("autotier_tick", obs::Category::kOther,
                      cluster_->client(options_.mover.client_index).node(),
                      /*op_id=*/0, start, cluster_->simulator().now());
  hub.recorder().Record(obs::RecKind::kPolicy, "autotier_tick",
                        cluster_->client(options_.mover.client_index).node(),
                        0, mover_.scheduled(), mover_.completed());
}

MemgestId AutoTierManager::PlacementOf(const Key& key) const {
  auto it = placements_.find(key);
  return it == placements_.end() ? kDefaultMemgest : it->second.memgest;
}

double AutoTierManager::RealizedStorageBytes() const {
  double total = 0.0;
  // ring-lint: ok(unordered-iter) gauge-only sum; never feeds scheduling.
  for (const auto& [key, state] : placements_) {
    double overhead = 1.0;
    if (const Tier* tier = engine_.TierOf(state.memgest)) {
      overhead = tier->desc.StorageOverhead();
    } else if (const MemgestInfo* info =
                   cluster_->runtime().registry().Get(state.memgest)) {
      overhead = info->desc.StorageOverhead();
    }
    total += static_cast<double>(state.bytes) * overhead;
  }
  return total;
}

double AutoTierManager::RealizedStorageCost() const {
  double total = 0.0;
  // ring-lint: ok(unordered-iter) gauge-only sum; never feeds scheduling.
  for (const auto& [key, state] : placements_) {
    const Tier* tier = engine_.TierOf(state.memgest);
    if (tier == nullptr) {
      continue;  // unpriced placement (not one of ours)
    }
    total += engine_.PlacementCost(*tier, tracker_.Temperature(key),
                                   state.bytes);
  }
  return total;
}

void AutoTierManager::UpdateGauges() {
  obs::Metrics& metrics = cluster_->simulator().hub().metrics();
  const uint32_t node = cluster_->client(options_.mover.client_index).node();
  metrics.SetGauge("policy.managed_keys",
                   static_cast<int64_t>(placements_.size()), node);
  metrics.SetGauge("policy.tracked_keys",
                   static_cast<int64_t>(tracker_.tracked()), node);
  metrics.SetGauge("policy.realized_storage_bytes",
                   static_cast<int64_t>(RealizedStorageBytes()), node);
  // Gauges are integers; export the realized cost in micro-dollars/month.
  metrics.SetGauge("policy.realized_cost_usd_millionths",
                   static_cast<int64_t>(RealizedStorageCost() * 1e6), node);
}

}  // namespace ring::policy
