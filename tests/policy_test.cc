// Adaptive resilience manager (src/policy): sketch accuracy, EWMA
// temperatures, hysteresis/anti-flapping, token-bucket pacing under failure
// injection, and end-to-end hot/cold convergence with reheating.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/policy/autotier.h"

namespace ring {
namespace {

using policy::AccessTracker;
using policy::AccessTrackerOptions;
using policy::AutoTierManager;
using policy::AutoTierOptions;
using policy::CountMinSketch;
using policy::Mover;
using policy::MoverOptions;
using policy::PolicyEngine;
using policy::Tier;

TEST(CountMinSketchTest, NeverUnderestimatesAndBoundsOverestimate) {
  CountMinSketch sketch(512, 4);
  std::map<std::string, uint64_t> truth;
  // Zipf-ish counts over 400 keys: a few heavy hitters, a long tail.
  for (int k = 0; k < 400; ++k) {
    const std::string key = "cms-" + std::to_string(k);
    const uint64_t n = 1 + 2000 / (k + 1);
    truth[key] = n;
    sketch.Add(key, n);
  }
  // Count-min guarantees: no underestimate, and the overestimate is a small
  // multiple of total/width (Markov per row, min over depth rows).
  const uint64_t slack = 8 * sketch.total() / sketch.width();
  for (const auto& [key, n] : truth) {
    const uint64_t est = sketch.Estimate(key);
    EXPECT_GE(est, n) << key;
    EXPECT_LE(est, n + slack) << key;
  }
  sketch.Clear();
  EXPECT_EQ(sketch.Estimate("cms-0"), 0u);
  EXPECT_EQ(sketch.total(), 0u);
}

TEST(AccessTrackerTest, EwmaFollowsAccessRateAndDecays) {
  AccessTracker tracker;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 16; ++i) {
      tracker.Record("hot");
    }
    if (epoch == 0) {
      tracker.Record("cold");
    }
    tracker.EndEpoch();
  }
  // "hot" converges toward its per-epoch rate; "cold" halves every epoch
  // after its single access.
  EXPECT_GT(tracker.Temperature("hot"), 12.0);
  EXPECT_LE(tracker.Temperature("hot"), 16.0);
  EXPECT_LT(tracker.Temperature("cold"), 0.2);
  EXPECT_EQ(tracker.Temperature("never-seen"), 0.0);
  // Decayed-to-nothing entries are dropped entirely.
  for (int epoch = 0; epoch < 12; ++epoch) {
    tracker.EndEpoch();
  }
  EXPECT_EQ(tracker.Temperature("cold"), 0.0);
}

TEST(AccessTrackerTest, TrackedKeysStaySpaceBounded) {
  AccessTrackerOptions o;
  o.max_tracked_keys = 64;
  AccessTracker tracker(o);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int k = 0; k < 500; ++k) {
      tracker.Record("sb-" + std::to_string(1000 * epoch + k));
    }
    tracker.EndEpoch();
    EXPECT_LE(tracker.tracked(), 64u);
  }
}

Tier HotTier(MemgestId id) {
  return Tier{id, MemgestDescriptor::Replicated(3),
              cost::PriceTable{}.hot};
}
Tier ColdTier(MemgestId id) {
  return Tier{id, MemgestDescriptor::ErasureCoded(3, 2),
              cost::PriceTable{}.cool};
}

TEST(PolicyEngineTest, HysteresisPreventsFlapping) {
  PolicyEngine engine({HotTier(0), ColdTier(1)});

  // Temperature oscillating inside the band never moves the key, starting
  // from either tier.
  for (MemgestId start : {MemgestId{0}, MemgestId{1}}) {
    MemgestId cur = start;
    int moves = 0;
    for (int i = 0; i < 50; ++i) {
      const double temp = (i % 2 == 0) ? 3.0 : 7.0;
      if (auto d = engine.Decide(temp, cur)) {
        ++moves;
        cur = *d;
      }
    }
    EXPECT_EQ(moves, 0) << "flapped from tier " << start;
  }
  // Crossing the thresholds does move — once per crossing, not per epoch.
  EXPECT_EQ(engine.Decide(1.0, 0), std::optional<MemgestId>(1));
  EXPECT_EQ(engine.Decide(9.0, 1), std::optional<MemgestId>(0));
  EXPECT_EQ(engine.Decide(9.0, 0), std::nullopt);  // already hot
  EXPECT_EQ(engine.Decide(1.0, 1), std::nullopt);  // already cold
}

// Nothing queued or in flight (a key may still be backing off).
bool Idle(const Mover& mover) {
  return mover.queued() == 0 && mover.in_flight() == 0;
}

TEST(MoverTest, TokenBucketHonorsRateUnderFailureInjection) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 1;
  options.clients = 2;
  options.seed = 11;
  RingCluster cluster(options);
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const MemgestId srs32 =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));

  const int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(cluster
                    .Put("tb-" + std::to_string(i),
                         MakePatternBuffer(512, i), rep3)
                    .ok());
  }

  MoverOptions mo;
  mo.moves_per_sec = 2000.0;
  mo.burst = 4.0;
  mo.max_concurrent = 2;
  mo.client_index = 1;
  Mover mover(&cluster, mo);
  const sim::SimTime start = cluster.simulator().now();
  for (int i = 0; i < kKeys; ++i) {
    mover.Enqueue("tb-" + std::to_string(i), srs32);
  }
  EXPECT_EQ(mover.scheduled(), static_cast<uint64_t>(kKeys));

  // Tick every 100 us; kill a coordinator a third of the way through so
  // some moves ride through a failover (and get retried by the mover).
  bool killed = false;
  for (int tick = 0; tick < 1200 && !Idle(mover); ++tick) {
    cluster.RunFor(100 * sim::kMicrosecond);
    if (!killed && tick == 80) {
      cluster.KillNode(1, /*force_detect=*/true);
      killed = true;
    }
    mover.Tick();
  }
  ASSERT_TRUE(Idle(mover));
  EXPECT_TRUE(killed);

  // Every scheduled move reached a terminal state, and despite the failure
  // the vast majority completed (aborts only if retries were exhausted).
  EXPECT_EQ(mover.completed() + mover.aborted(),
            static_cast<uint64_t>(kKeys));
  EXPECT_GE(mover.completed(), static_cast<uint64_t>(kKeys - 4));

  // The token bucket bound: launches (including retries — each consumes a
  // token) never exceed rate * elapsed + burst.
  const double elapsed_sec =
      static_cast<double>(cluster.simulator().now() - start) / 1e9;
  EXPECT_LE(static_cast<double>(mover.launched()),
            mo.moves_per_sec * elapsed_sec + mo.burst + 1e-6);

  // The moved data survived re-tiering byte-exactly.
  for (int i = 0; i < kKeys; i += 7) {
    auto got = cluster.Get("tb-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, MakePatternBuffer(512, i)) << i;
  }
}

TEST(MoverTest, AbortsCleanlyWhenPartitionedFromTheCluster) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 1;
  options.clients = 2;
  options.seed = 23;
  // The mover's client (node 7) is cut off from every server until 200 ms;
  // the foreground client (node 6) is unaffected, so setup traffic and the
  // post-mortem reads below go through normally.
  options.fault_plan =
      *fault::ParseFaultPlan("partition a=7 b=0,1,2,3,4,5 at=0 heal=200ms");
  options.fault_seed = 23;
  RingCluster cluster(options);
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const MemgestId srs32 =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));

  const int kKeys = 4;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(cluster
                    .Put("pa-" + std::to_string(i),
                         MakePatternBuffer(256, i), rep3)
                    .ok());
  }

  MoverOptions mo;
  mo.max_retries = 2;
  mo.retry_backoff_ns = 1 * sim::kMillisecond;
  mo.client_index = 1;
  Mover mover(&cluster, mo);
  for (int i = 0; i < kKeys; ++i) {
    mover.Enqueue("pa-" + std::to_string(i), srs32);
  }
  // Each attempt burns the client retry budget (20 ms) before surfacing
  // kUnavailable; two attempts per move finish well before the heal.
  for (int tick = 0; tick < 1800 && !Idle(mover); ++tick) {
    cluster.RunFor(100 * sim::kMicrosecond);
    mover.Tick();
  }
  ASSERT_TRUE(Idle(mover));
  EXPECT_LT(cluster.simulator().now(), 180 * sim::kMillisecond);
  EXPECT_EQ(mover.aborted(), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(mover.completed(), 0u);
  EXPECT_EQ(mover.retried(), static_cast<uint64_t>(kKeys));

  // Aborting is safe: the keys keep their scheme and bytes.
  for (int i = 0; i < kKeys; ++i) {
    auto got = cluster.Get("pa-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, MakePatternBuffer(256, i)) << i;
  }

  // After the partition heals the same mover client works again.
  cluster.RunFor(210 * sim::kMillisecond - cluster.simulator().now());
  mover.Enqueue("pa-0", srs32);
  for (int tick = 0; tick < 600 && !Idle(mover); ++tick) {
    cluster.RunFor(100 * sim::kMicrosecond);
    mover.Tick();
  }
  ASSERT_TRUE(Idle(mover));
  EXPECT_EQ(mover.completed(), 1u);
  auto moved = cluster.Get("pa-0");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, MakePatternBuffer(256, 0));
}

TEST(AutoTierManagerTest, ConvergesOnHotColdSplitAndReheats) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 0;
  options.clients = 1;
  options.seed = 5;
  RingCluster cluster(options);
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const MemgestId srs32 =
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));

  AutoTierOptions ao;
  ao.epoch_ns = 5 * sim::kMillisecond;
  ao.mover.moves_per_sec = 5000.0;
  AutoTierManager manager(&cluster,
                          {Tier{rep3, MemgestDescriptor::Replicated(3),
                                cost::PriceTable{}.hot},
                           Tier{srs32, MemgestDescriptor::ErasureCoded(3, 2),
                                cost::PriceTable{}.cool}},
                          ao);

  const int kKeys = 40;
  const int kHot = 8;
  auto key_of = [](int i) { return "at-" + std::to_string(i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(cluster.Put(key_of(i), MakePatternBuffer(2048, i), rep3).ok());
  }
  auto live_bytes = [&] {
    uint64_t total = 0;
    for (net::NodeId n = 0; n < 5; ++n) {
      total += cluster.server(n).LiveBytes();
    }
    return total;
  };
  const uint64_t all_hot_bytes = live_bytes();

  manager.Start();
  // Several epochs of gets concentrated on the hot subset: hot keys stay
  // replicated, the cold majority is demoted to erasure coding.
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (int rep = 0; rep < 12; ++rep) {
      for (int i = 0; i < kHot; ++i) {
        ASSERT_TRUE(cluster.Get(key_of(i)).ok());
      }
    }
    cluster.RunFor(5 * sim::kMillisecond);
  }
  // Drain in-flight moves; short enough that the idle epochs only decay the
  // hot keys into the hysteresis band, not past the demotion threshold.
  cluster.RunFor(8 * sim::kMillisecond);

  for (int i = 0; i < kHot; ++i) {
    EXPECT_EQ(manager.PlacementOf(key_of(i)), rep3) << "hot key " << i;
  }
  int cold_moved = 0;
  for (int i = kHot; i < kKeys; ++i) {
    cold_moved += manager.PlacementOf(key_of(i)) == srs32 ? 1 : 0;
  }
  EXPECT_EQ(cold_moved, kKeys - kHot);
  // Cluster memory actually dropped: 32 of 40 keys now cost 1.67x instead
  // of 3x.
  const uint64_t tiered_bytes = live_bytes();
  EXPECT_LT(static_cast<double>(tiered_bytes),
            0.75 * static_cast<double>(all_hot_bytes));
  EXPECT_GT(manager.mover().completed(), 0u);
  EXPECT_EQ(manager.mover().aborted(), 0u);

  // Reheat a demoted key: sustained accesses promote it back, bytes intact.
  const Key reheat = key_of(20);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int rep = 0; rep < 12; ++rep) {
      ASSERT_TRUE(cluster.Get(reheat).ok());
    }
    cluster.RunFor(5 * sim::kMillisecond);
  }
  cluster.RunFor(8 * sim::kMillisecond);
  EXPECT_EQ(manager.PlacementOf(reheat), rep3);
  auto got = cluster.Get(reheat);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakePatternBuffer(2048, 20));
  manager.Stop();

  // The obs gauges reflect the managed population (metrics were enabled by
  // the obs layer only if the harness turned them on; enable + tick once).
  cluster.simulator().hub().EnableMetrics(true);
  manager.Tick();
  const auto& metrics = cluster.simulator().hub().metrics();
  const uint32_t node = cluster.client(0).node();
  EXPECT_EQ(metrics.gauges().at({"policy.managed_keys", node}),
            static_cast<int64_t>(kKeys));
  EXPECT_GT(metrics.gauges().at({"policy.realized_storage_bytes", node}), 0);
}

}  // namespace
}  // namespace ring
