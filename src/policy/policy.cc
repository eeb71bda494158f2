#include "src/policy/policy.h"

namespace ring::policy {

PolicyEngine::PolicyEngine(std::vector<Tier> tiers)
    : tiers_(std::move(tiers)) {}

const Tier* PolicyEngine::TierOf(MemgestId memgest) const {
  for (const auto& t : tiers_) {
    if (t.memgest == memgest) {
      return &t;
    }
  }
  return nullptr;
}

double PolicyEngine::PlacementCost(const Tier& tier, double temperature,
                                   uint64_t bytes) const {
  // Storage is charged on raw bytes times the scheme's overhead (Rep(r)
  // stores r copies, SRS(k,m) stores 1 + m/k), as in Fig. 10.
  constexpr double kGb = 1024.0 * 1024.0 * 1024.0;
  const double stored_gb =
      static_cast<double>(bytes) * tier.desc.StorageOverhead() / kGb;
  const double storage = stored_gb * tier.prices.storage_gb_month;
  // Operations: temperature (ops/epoch) scaled to ops/month; reads from a
  // cool tier additionally pay per-GB retrieval.
  constexpr double kOpsPerMonthPerTemp = 1.0e6;
  const double ops = temperature * kOpsPerMonthPerTemp;
  const double op_cost = ops * tier.prices.read_per_10k / 10'000.0;
  const double retrieval =
      ops * static_cast<double>(bytes) / kGb * tier.prices.retrieval_gb;
  return storage + op_cost + retrieval;
}

std::optional<MemgestId> PolicyEngine::Decide(double temperature,
                                              MemgestId current) const {
  if (tiers_.empty()) {
    return std::nullopt;
  }
  const Tier& hot = tiers_.front();
  const Tier& cold = tiers_.back();
  if (temperature >= kHotEnter && current != hot.memgest) {
    return hot.memgest;
  }
  if (temperature <= kColdEnter && current != cold.memgest) {
    return cold.memgest;
  }
  return std::nullopt;  // inside the hysteresis band: stay
}

}  // namespace ring::policy
