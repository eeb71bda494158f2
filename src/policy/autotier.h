// AutoTierManager: the adaptive resilience manager — the control plane that
// automates the paper's multi-temperature use case (§2, use case 1).
//
// It taps every client's op issue path to feed the access tracker, rolls a
// temperature epoch on a fixed simulated-time tick, asks the policy engine
// where each managed key should live, and hands the resulting re-tiering
// moves to the token-bucket mover. All state is control-plane bookkeeping in
// zero simulated time; the only simulated traffic it generates is the moves
// themselves, issued through the ordinary client library so the versioned
// move consistency of §5.2 is preserved under concurrent puts/gets.
//
// Placement is learned, not queried: a key enters management when a put is
// observed (the put names the memgest), and its placement is updated on
// every observed or manager-issued move and dropped on delete. Keys the
// manager has never seen a put for are left alone.
#ifndef RING_SRC_POLICY_AUTOTIER_H_
#define RING_SRC_POLICY_AUTOTIER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/policy/access_tracker.h"
#include "src/policy/mover.h"
#include "src/policy/policy.h"

namespace ring::policy {

struct AutoTierOptions {
  // Epoch length: how often temperatures roll and decisions are made.
  sim::SimTime epoch_ns = 10 * sim::kMillisecond;
  MoverOptions mover;
};

class AutoTierManager {
 public:
  // `tiers` ordered hottest first (see PolicyEngine). The manager installs
  // itself as the access observer of every cluster client and must outlive
  // all simulation it started.
  AutoTierManager(RingCluster* cluster, std::vector<Tier> tiers,
                  AutoTierOptions options);

  // Starts/stops the periodic epoch tick on the simulator event loop.
  void Start();
  void Stop();

  // One epoch roll: fold temperatures, enqueue policy moves, tick the mover,
  // refresh gauges. Exposed for tests; Start() calls it on a timer.
  void Tick();

  // Last-known placement of a managed key (kDefaultMemgest if unmanaged).
  MemgestId PlacementOf(const Key& key) const;

  // Managed bytes weighted by each placement's storage overhead — the
  // realized cluster-memory footprint the policy is minimizing (also
  // exported as a gauge).
  double RealizedStorageBytes() const;
  // Monthly storage+ops cost of the current placements per the tier prices
  // (temperatures taken from the tracker).
  double RealizedStorageCost() const;

  Mover& mover() { return mover_; }

 private:
  struct KeyState {
    MemgestId memgest = kDefaultMemgest;
    uint64_t bytes = 0;
  };

  void Observe(const Key& key, obs::OpKind op, MemgestId memgest,
               uint64_t bytes);
  void ScheduleTick();
  void UpdateGauges();

  RingCluster* cluster_;
  AutoTierOptions options_;
  AccessTracker tracker_;
  PolicyEngine engine_;
  Mover mover_;
  std::unordered_map<Key, KeyState> placements_;
  bool running_ = false;
  uint64_t generation_ = 0;  // invalidates pending tick timers on Stop()
};

}  // namespace ring::policy

#endif  // RING_SRC_POLICY_AUTOTIER_H_
