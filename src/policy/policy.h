// Placement policy for the adaptive resilience manager: given a key's
// temperature and current memgest, decide where it should live.
//
// Hot/cold thresholds with a hysteresis band: promote at kHotEnter,
// demote at kColdEnter (< kHotEnter); keys inside the band stay put, so
// temperature noise cannot flap a key between tiers. PlacementCost prices a
// placement with the Fig. 10 cost model (src/cost/pricing) for the
// realized-cost gauge.
#ifndef RING_SRC_POLICY_POLICY_H_
#define RING_SRC_POLICY_POLICY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cost/pricing.h"
#include "src/ring/types.h"

namespace ring::policy {

// One placement tier the engine may choose.
struct Tier {
  MemgestId memgest = kDefaultMemgest;
  MemgestDescriptor desc;
  // Prices PlacementCost charges for keys in this tier.
  cost::TierPrices prices;
};

class PolicyEngine {
 public:
  // EWMA temperature (ops/epoch) at or above which a key belongs in the hot
  // tier, and the lower demotion threshold (hysteresis band between).
  static constexpr double kHotEnter = 8.0;
  static constexpr double kColdEnter = 2.0;

  // `tiers` ordered hottest first; two tiers (hot, cold) is the common case.
  explicit PolicyEngine(std::vector<Tier> tiers);

  // Desired memgest for a key, or nullopt to stay.
  std::optional<MemgestId> Decide(double temperature, MemgestId current) const;

  // Monthly cost of holding `bytes` at `temperature` in `tier`, with one
  // unit of temperature priced as 1e6 ops/month (the realized-cost gauge).
  double PlacementCost(const Tier& tier, double temperature,
                       uint64_t bytes) const;

  const std::vector<Tier>& tiers() const { return tiers_; }
  const Tier* TierOf(MemgestId memgest) const;

 private:
  std::vector<Tier> tiers_;
};

}  // namespace ring::policy

#endif  // RING_SRC_POLICY_POLICY_H_
