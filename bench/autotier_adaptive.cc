// Adaptive tiering under a shifting hotspot: the policy subsystem
// (src/policy) against an all-Rep(3) baseline.
//
// 240 keys of 4 KiB live under a Zipf(0.99) distribution whose head rotates
// across the key space every 30 ms (workload::HotspotOffset — the
// deterministic hot→cold transition mode). The adaptive run starts all keys
// replicated and lets the AutoTierManager demote the cold majority to
// SRS(3,2) and chase the hotspot as it moves; the baseline keeps everything
// in Rep(3). Reported: cluster-memory/cost reduction and the latency impact
// on hot-key gets (the paper's multi-temperature economics, §2 use case 1 +
// Fig. 10, automated).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/policy/autotier.h"
#include "src/workload/drivers.h"
#include "src/workload/zipf.h"

namespace ring::bench {
namespace {

constexpr int kKeys = 240;
constexpr size_t kValueBytes = 4096;
constexpr uint64_t kHotCut = 24;   // ranks < kHotCut count as "hot" gets
constexpr uint64_t kShift = 80;    // hotspot rotation per phase
constexpr sim::SimTime kPhase = 30 * sim::kMillisecond;
constexpr int kPhases = 3;

Key KeyOf(int rank) { return "tier-" + std::to_string(rank); }

uint64_t ClusterLiveBytes(RingCluster& cluster) {
  uint64_t total = 0;
  for (net::NodeId n = 0; n < 5; ++n) {
    total += cluster.server(n).LiveBytes();
  }
  return total;
}

struct RunResult {
  uint64_t live_bytes = 0;          // converged cluster memory
  Samples hot_get_us;               // hot-rank get latencies, all phases
  uint64_t moves_completed = 0;
  uint64_t moves_scheduled = 0;
  uint64_t moves_aborted = 0;
  double realized_cost = 0.0;       // $/month per the tier price table
};

// One full shifting-hotspot run. `adaptive` enables the manager; both modes
// replay the identical closed-loop get sequence (same seed, same rotation
// schedule), so latency and memory numbers are directly comparable.
RunResult Run(bool adaptive) {
  RingCluster cluster(PaperCluster(/*clients=*/2, /*spares=*/0, /*seed=*/7));
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3, "REP3"));
  const MemgestId srs32 =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "SRS32"));

  policy::AutoTierOptions ao;
  ao.epoch_ns = 5 * sim::kMillisecond;
  ao.mover.moves_per_sec = 4000.0;
  ao.mover.client_index = 1;  // moves ride a separate client endpoint
  policy::AutoTierManager manager(
      &cluster,
      {policy::Tier{rep3, MemgestDescriptor::Replicated(3),
                    cost::PriceTable{}.hot},
       policy::Tier{srs32, MemgestDescriptor::ErasureCoded(3, 2),
                    cost::PriceTable{}.cool}},
      ao);

  const Buffer value = MakePatternBuffer(kValueBytes, 7);
  for (int i = 0; i < kKeys; ++i) {
    if (!cluster.Put(KeyOf(i), value, rep3).ok()) {
      std::fprintf(stderr, "preload failed\n");
      return {};
    }
  }
  if (adaptive) {
    manager.Start();
  }

  // Closed-loop gets; the Zipf head sits on rank HotspotOffset(now)/..., so
  // the hot set marches deterministically as simulated time passes.
  workload::ZipfGenerator zipf(kKeys, 0.99);
  Rng rng(11);
  RunResult out;
  auto& client = cluster.client(0);
  client.ResetStats();
  const sim::SimTime t0 = cluster.simulator().now();
  while (cluster.simulator().now() - t0 < kPhases * kPhase) {
    const uint64_t raw = zipf.Next(rng);
    const uint64_t offset = workload::HotspotOffset(
        cluster.simulator().now() - t0, kPhase, kShift);
    const int rank = static_cast<int>((raw + offset) % kKeys);
    if (!cluster.Get(KeyOf(rank)).ok()) {
      continue;
    }
    if (raw < kHotCut && !client.latencies().empty()) {
      out.hot_get_us.Add(client.latencies().values().back());
    }
  }
  // Let the last batch of re-tiering moves drain before measuring memory.
  cluster.RunFor(10 * sim::kMillisecond);

  out.live_bytes = ClusterLiveBytes(cluster);
  out.moves_scheduled = manager.mover().scheduled();
  out.moves_completed = manager.mover().completed();
  out.moves_aborted = manager.mover().aborted();
  out.realized_cost = manager.RealizedStorageCost();
  manager.Stop();

  // Spot-check integrity after all the background re-tiering.
  for (int i = 0; i < kKeys; i += 37) {
    auto got = cluster.Get(KeyOf(i));
    if (!got.ok() || *got != value) {
      std::fprintf(stderr, "integrity check failed for %s\n",
                   KeyOf(i).c_str());
    }
  }
  return out;
}

void Main() {
  std::printf(
      "Adaptive tiering vs all-Rep(3), shifting hotspot (%d keys x %zu B,\n"
      "Zipf head of %llu rotating by %llu keys every %llu ms, %d phases):\n\n",
      kKeys, kValueBytes, static_cast<unsigned long long>(kHotCut),
      static_cast<unsigned long long>(kShift),
      static_cast<unsigned long long>(kPhase / sim::kMillisecond), kPhases);

  const RunResult base = Run(/*adaptive=*/false);
  const RunResult tier = Run(/*adaptive=*/true);

  const double raw_bytes = static_cast<double>(kKeys) * kValueBytes;
  std::printf(
      "  all-Rep(3)  memory %9llu B (%.2fx raw)   hot-get p99 %7.2f us"
      "  (%zu hot gets)\n",
      static_cast<unsigned long long>(base.live_bytes),
      base.live_bytes / raw_bytes, base.hot_get_us.Percentile(99),
      base.hot_get_us.count());
  std::printf(
      "  adaptive    memory %9llu B (%.2fx raw)   hot-get p99 %7.2f us"
      "  (%zu hot gets)\n",
      static_cast<unsigned long long>(tier.live_bytes),
      tier.live_bytes / raw_bytes, tier.hot_get_us.Percentile(99),
      tier.hot_get_us.count());
  std::printf(
      "  moves: scheduled %llu, completed %llu, aborted %llu;"
      " realized storage+ops cost %.4f $/month\n",
      static_cast<unsigned long long>(tier.moves_scheduled),
      static_cast<unsigned long long>(tier.moves_completed),
      static_cast<unsigned long long>(tier.moves_aborted),
      tier.realized_cost);

  const double saving =
      100.0 * (1.0 - static_cast<double>(tier.live_bytes) /
                         static_cast<double>(base.live_bytes));
  const double p99_delta =
      100.0 * (tier.hot_get_us.Percentile(99) /
                   base.hot_get_us.Percentile(99) -
               1.0);
  std::printf(
      "\n  cluster-memory saving %.1f%% (target >= 30%%),"
      " hot-get p99 delta %+.1f%% (target within 10%%)\n",
      saving, p99_delta);
}

}  // namespace
}  // namespace ring::bench

int main() {
  ring::bench::Main();
  return 0;
}
