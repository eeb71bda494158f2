// Multi-temperature data management (paper §2, use case 1).
//
// A warehouse's keys have different temperatures: hot keys belong in fast
// replicated storage, cold keys in low-overhead erasure coding. Instead of
// hand-rolling access counters and migration loops, this example hands the
// problem to the adaptive resilience manager (src/policy): it watches the
// traffic, tracks per-key temperature in a count-min sketch, and issues
// rate-limited background moves between tiers — pulling keys back to
// replication when they heat up again, strongly consistent throughout.
#include <cstdio>
#include <string>

#include "src/policy/autotier.h"
#include "src/ring/cluster.h"

using namespace ring;

namespace {

uint64_t ClusterMemory(RingCluster& cluster) {
  uint64_t total = 0;
  for (net::NodeId node = 0; node < 5; ++node) {
    total += cluster.server(node).LiveBytes();
  }
  return total;
}

std::string ItemKey(int i) { return "item:" + std::to_string(i); }

}  // namespace

int main() {
  RingOptions options;
  options.clients = 2;  // client 1 carries the manager's background moves
  RingCluster cluster(options);
  const MemgestId hot =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3, "hot"));
  const MemgestId cold =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "cold"));

  // Tiers are listed hottest-first; each carries the cloud price sheet the
  // realized-cost gauge charges.
  policy::AutoTierOptions ao;
  ao.epoch_ns = 5 * sim::kMillisecond;
  ao.mover.client_index = 1;
  policy::AutoTierManager manager(
      &cluster,
      {policy::Tier{hot, MemgestDescriptor::Replicated(3),
                    cost::PriceTable{}.hot},
       policy::Tier{cold, MemgestDescriptor::ErasureCoded(3, 2),
                    cost::PriceTable{}.cool}},
      ao);

  // A working set of 120 items, 4 KiB each; only ~20 stay hot.
  const int items = 120;
  const size_t item_size = 4096;
  for (int i = 0; i < items; ++i) {
    (void)cluster.Put(ItemKey(i), MakePatternBuffer(item_size, i), hot);
  }
  const uint64_t all_hot = ClusterMemory(cluster);
  manager.Start();

  // Skewed traffic: a 20-item hot subset absorbs every get. The manager
  // sees the accesses through its client observers — no bookkeeping here.
  Rng rng(5);
  for (int op = 0; op < 2000; ++op) {
    const int item = static_cast<int>(rng.NextBelow(20));
    (void)cluster.Get(ItemKey(item));
    if (op % 100 == 99) {
      cluster.RunFor(sim::kMillisecond);  // idle gaps let epochs elapse
    }
  }
  cluster.RunFor(20 * sim::kMillisecond);  // drain moves + GC notices
  const uint64_t tiered = ClusterMemory(cluster);
  const auto& mover = manager.mover();

  std::printf("multi-temperature management of %d x %zu B items\n", items,
              item_size);
  std::printf("  all hot (Rep3):        %8.1f KiB cluster memory\n",
              all_hot / 1024.0);
  std::printf("  auto-tiered:           %8.1f KiB cluster memory"
              "  (%llu background moves, %llu aborted)\n",
              tiered / 1024.0,
              static_cast<unsigned long long>(mover.completed()),
              static_cast<unsigned long long>(mover.aborted()));
  std::printf("  saved: %.0f%%  (theoretical for 5/3 overhead: %.0f%%)\n",
              100.0 * (1.0 - static_cast<double>(tiered) / all_hot),
              100.0 * (1.0 - (20.0 * 3 + 100 * 5.0 / 3) / (120.0 * 3)));
  std::printf("  realized storage+ops cost: %.4f $/month\n",
              manager.RealizedStorageCost());

  // Reheat: a cold item becomes popular again; the manager notices the
  // temperature spike and promotes it back to replication on its own.
  for (int op = 0; op < 400; ++op) {
    (void)cluster.Get(ItemKey(100));
    if (op % 50 == 49) {
      cluster.RunFor(sim::kMillisecond);
    }
  }
  cluster.RunFor(20 * sim::kMillisecond);
  const MemgestId placement = manager.PlacementOf(ItemKey(100));
  auto value = cluster.Get(ItemKey(100));
  std::printf("  reheated item:100 -> %s tier, bytes intact: %s\n",
              placement == hot ? "hot" : "cold",
              value.ok() && *value == MakePatternBuffer(item_size, 100)
                  ? "yes"
                  : "NO");
  manager.Stop();
  return 0;
}
