// Elastic cluster membership (§13): config-level transition properties, the
// rebalance planner, end-to-end online scale-out/in with data, and the
// injector's crash-safety guard.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/consensus/config.h"
#include "src/fault/fault.h"
#include "src/membership/rebalance.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

using consensus::ClusterConfig;
using consensus::kSpareSlot;
using membership::RebalanceCoordinator;
using membership::RebalanceOptions;
using membership::RebalancePlanner;
using membership::RebalanceStats;

// Drives the simulation until `coord`'s resize drains.
Status Drain(RingCluster& cluster, RebalanceCoordinator& coord,
             RebalanceStats* stats) {
  const bool drained =
      cluster.RunUntilDone([&coord] { return !coord.active(); });
  if (stats != nullptr) {
    *stats = coord.stats();
  }
  if (!drained) {
    return TimeoutError("rebalance did not drain within the event budget");
  }
  if (coord.failed()) {
    return UnavailableError("rebalance gave up before draining");
  }
  return OkStatus();
}

// Synchronous resizes: begin the transition, then drain it.
Status ScaleOut(RingCluster& cluster, net::NodeId node,
                RebalanceStats* stats = nullptr) {
  RebalanceCoordinator coord(&cluster);
  if (!coord.AddServer(node)) {
    return FailedPreconditionError("scale-out rejected");
  }
  return Drain(cluster, coord, stats);
}

Status ScaleIn(RingCluster& cluster, uint32_t slot,
               RebalanceStats* stats = nullptr) {
  RebalanceCoordinator coord(&cluster);
  if (!coord.RemoveServer(slot)) {
    return FailedPreconditionError("scale-in rejected");
  }
  return Drain(cluster, coord, stats);
}

// ---------------------------------------------------------------------------
// Property-style config transitions: random interleavings of add / remove /
// complete / fail+promote / readmit keep the structural invariants and never
// move the epoch backwards.

TEST(MembershipConfig, RandomInterleavingsKeepInvariants) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    ClusterConfig c = ClusterConfig::Initial(4, 2, 10);
    uint64_t last_epoch = c.epoch;
    std::string why;
    for (int step = 0; step < 200; ++step) {
      switch (rng.NextBelow(5)) {
        case 0: {  // grow, if a spare is live
          const int32_t spare = c.FindSpare();
          if (spare >= 0) {
            c.BeginAddServer(static_cast<net::NodeId>(spare));
          }
          break;
        }
        case 1:  // shrink a random coordinator slot
          if (c.s > 1) {
            c.BeginRemoveServer(
                static_cast<uint32_t>(rng.NextBelow(c.s)));
          }
          break;
        case 2:  // retire the previous shape
          if (c.rebalancing()) {
            c.CompleteRebalance();
          }
          break;
        case 3: {  // fail a random slotted node, promote a spare over it
          const uint32_t slot = static_cast<uint32_t>(
              rng.NextBelow(c.Current().num_slots()));
          const net::NodeId victim = c.Current().NodeOfSlot(slot);
          if (!c.failed[victim]) {
            c.MarkFailed(victim);
            const int32_t spare = c.FindSpare();
            if (spare >= 0) {
              c.Promote(victim, static_cast<net::NodeId>(spare));
            }
          }
          break;
        }
        case 4: {  // readmit a random failed node
          std::vector<net::NodeId> dead;
          for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
            if (c.failed[n]) {
              dead.push_back(n);
            }
          }
          if (!dead.empty()) {
            c.Readmit(dead[rng.NextBelow(dead.size())]);
          }
          break;
        }
      }
      ASSERT_TRUE(c.CheckInvariants(&why))
          << "seed " << seed << " step " << step << ": " << why;
      ASSERT_GE(c.epoch, last_epoch) << "seed " << seed << " step " << step;
      last_epoch = c.epoch;
    }
  }
}

TEST(MembershipConfig, AddRemoveRoundTripRestoresShape) {
  ClusterConfig c = ClusterConfig::Initial(3, 2, 7);
  const std::vector<net::NodeId> before = c.node_of_slot;
  ASSERT_TRUE(c.BeginAddServer(5));
  EXPECT_TRUE(c.rebalancing());
  EXPECT_EQ(c.s, 4u);
  EXPECT_EQ(c.Previous().s, 3u);
  c.CompleteRebalance();
  EXPECT_FALSE(c.rebalancing());
  ASSERT_TRUE(c.BeginRemoveServer(3));  // the slot node 5 joined into
  c.CompleteRebalance();
  EXPECT_EQ(c.s, 3u);
  EXPECT_EQ(c.node_of_slot, before);
  EXPECT_EQ(c.FindSpare(), 5);  // the removed node returned to the pool
}

// ---------------------------------------------------------------------------
// Planner arithmetic.

TEST(RebalancePlanner, PlanCoversOldShapeAndEstimatesMovement) {
  ClusterConfig c = ClusterConfig::Initial(6, 2, 10);
  ASSERT_TRUE(c.BeginAddServer(8));
  const RebalancePlanner::Plan plan = RebalancePlanner::Compute(c);
  EXPECT_EQ(plan.old_s, 6u);
  EXPECT_EQ(plan.new_s, 7u);
  EXPECT_EQ(plan.source_shards.size(), 6u);
  EXPECT_FALSE(plan.source_nodes.empty());
  EXPECT_GT(plan.moved_fraction, 0.0);
  EXPECT_LE(plan.moved_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// End-to-end online resizes with data.

class ElasticClusterTest : public ::testing::Test {
 protected:
  void Start(uint32_t s, uint32_t spares, uint64_t seed = 11) {
    RingOptions opt;
    opt.s = s;
    opt.d = 2;
    opt.spares = spares;
    opt.clients = 1;
    opt.seed = seed;
    cluster_ = std::make_unique<RingCluster>(opt);
    rep3_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(3, "rep3"));
    srs32_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
  }

  void WriteKeys(int from, int to) {
    for (int i = from; i < to; ++i) {
      const Key key = "key-" + std::to_string(i);
      const MemgestId target = (i % 2 == 0) ? rep3_ : srs32_;
      ASSERT_TRUE(cluster_->Put(key, ValueOf(i), target).ok()) << key;
      expected_[key] = ValueOf(i);
    }
  }

  void VerifyAllKeys() {
    EXPECT_EQ(cluster_->CheckKeyDirectories(), "");
    for (const auto& [key, value] : expected_) {
      auto got = cluster_->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status();
      EXPECT_EQ(std::string(got->begin(), got->end()), value) << key;
    }
  }

  static std::string ValueOf(int i) {
    return "value-" + std::to_string(i) + std::string(64, 'x');
  }

  const ClusterConfig& LeaderConfig() {
    RingRuntime& rt = cluster_->runtime();
    return rt.membership().ConfigView(rt.leader_node());
  }

  std::unique_ptr<RingCluster> cluster_;
  MemgestId rep3_ = 0;
  MemgestId srs32_ = 0;
  std::map<Key, std::string> expected_;
};

TEST_F(ElasticClusterTest, ScaleOut6To8AndBackOnline) {
  Start(/*s=*/6, /*spares=*/2);
  WriteKeys(0, 120);
  std::string why;

  // Scale out 6 -> 8: both spares (nodes 8 and 9) join as coordinators.
  RebalanceStats grow1;
  ASSERT_TRUE(ScaleOut(*cluster_, 8, &grow1).ok());
  EXPECT_EQ(LeaderConfig().s, 7u);
  EXPECT_FALSE(LeaderConfig().rebalancing());
  ASSERT_TRUE(LeaderConfig().CheckInvariants(&why)) << why;
  EXPECT_GT(grow1.keys_moved + grow1.keys_reencoded, 0u);
  VerifyAllKeys();

  RebalanceStats grow2;
  ASSERT_TRUE(ScaleOut(*cluster_, 9, &grow2).ok());
  EXPECT_EQ(LeaderConfig().s, 8u);
  VerifyAllKeys();

  // The grown cluster accepts new writes at the new shape.
  WriteKeys(120, 160);
  VerifyAllKeys();

  // Scale back in 8 -> 6: the two youngest coordinator slots leave.
  ASSERT_TRUE(ScaleIn(*cluster_, 7).ok());
  EXPECT_EQ(LeaderConfig().s, 7u);
  ASSERT_TRUE(ScaleIn(*cluster_, 6).ok());
  EXPECT_EQ(LeaderConfig().s, 6u);
  ASSERT_TRUE(LeaderConfig().CheckInvariants(&why)) << why;
  EXPECT_EQ(LeaderConfig().spares.size(), 2u);  // both returned to the pool
  VerifyAllKeys();
  WriteKeys(160, 180);
  VerifyAllKeys();
}

TEST_F(ElasticClusterTest, WritesRacingTheDrainStayConsistent) {
  Start(/*s=*/6, /*spares=*/1, /*seed=*/23);
  WriteKeys(0, 80);

  RebalanceCoordinator coord(cluster_.get(), RebalanceOptions{});
  ASSERT_TRUE(coord.AddServer(8));
  // Overwrites racing the background drain: each Put drives the simulator,
  // so migration traffic interleaves with these foreground commits.
  for (int i = 0; i < 80; i += 3) {
    const Key key = "key-" + std::to_string(i);
    const std::string value = "racing-" + std::to_string(i);
    ASSERT_TRUE(
        cluster_->Put(key, value, (i % 2 == 0) ? rep3_ : srs32_).ok());
    expected_[key] = value;
  }
  ASSERT_TRUE(cluster_->RunUntilDone([&coord] { return !coord.active(); }));
  ASSERT_FALSE(coord.failed());
  EXPECT_EQ(LeaderConfig().s, 7u);
  VerifyAllKeys();  // read-your-writes across the shape transition
}

TEST_F(ElasticClusterTest, PreconditionsRejectBadTransitions) {
  Start(/*s=*/3, /*spares=*/1);
  // Node 2 is a coordinator, not a spare.
  EXPECT_FALSE(ScaleOut(*cluster_, 2).ok());
  // Slot 4 is a redundant slot, not a coordinator slot.
  EXPECT_FALSE(ScaleIn(*cluster_, 4).ok());
  // SRS(3,2) needs k <= s: shrinking 3 -> 2 must be refused by the catalogue.
  EXPECT_FALSE(ScaleIn(*cluster_, 2).ok());
  EXPECT_EQ(LeaderConfig().s, 3u);
  EXPECT_FALSE(LeaderConfig().rebalancing());
}

TEST_F(ElasticClusterTest, StaticClusterCountersStayZero) {
  Start(/*s=*/3, /*spares=*/0);
  WriteKeys(0, 40);
  VerifyAllKeys();
  for (net::NodeId n = 0; n < cluster_->runtime().num_server_nodes(); ++n) {
    const RingServer::Counters& c = cluster_->server(n).counters();
    EXPECT_EQ(c.forwards, 0u);
    EXPECT_EQ(c.fenced_drops, 0u);
    EXPECT_EQ(c.keys_migrated, 0u);
    EXPECT_EQ(c.keys_reencoded, 0u);
    EXPECT_EQ(c.installs, 0u);
  }
}

// ---------------------------------------------------------------------------
// Injector crash guard (a crash needs a spare to absorb the promotion).

TEST(CrashGuard, DowngradesCrashWhenNoSpareIsLive) {
  RingOptions opt;
  opt.s = 3;
  opt.d = 2;
  opt.spares = 0;  // nothing can absorb a promotion
  opt.fault_plan =
      *fault::ParseFaultPlan("crash node=1 at=2ms recover=30ms");
  RingCluster cluster(opt);
  ASSERT_TRUE(cluster.CreateMemgest(MemgestDescriptor::Replicated(3)).ok());
  ASSERT_TRUE(cluster.Put("k", "v").ok());
  cluster.RunFor(50 * sim::kMillisecond);
  const fault::FaultInjector* inj = cluster.runtime().injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->counters().crashes, 0u);
  EXPECT_EQ(inj->counters().downgraded_crashes, 1u);
  EXPECT_EQ(inj->counters().recoveries, 0u);
  // The node was only paused: no promotion happened and data still serves.
  auto got = cluster.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->begin(), got->end()), "v");
}

TEST(CrashGuard, AllowsCrashWhenASpareCanAbsorbIt) {
  RingOptions opt;
  opt.s = 3;
  opt.d = 2;
  opt.spares = 1;
  opt.fault_plan =
      *fault::ParseFaultPlan("crash node=1 at=2ms recover=60ms");
  RingCluster cluster(opt);
  ASSERT_TRUE(cluster.CreateMemgest(MemgestDescriptor::Replicated(3)).ok());
  ASSERT_TRUE(cluster.Put("k", "v").ok());
  cluster.RunFor(100 * sim::kMillisecond);
  const fault::FaultInjector* inj = cluster.runtime().injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->counters().crashes, 1u);
  EXPECT_EQ(inj->counters().downgraded_crashes, 0u);
  auto got = cluster.Get("k");
  ASSERT_TRUE(got.ok());
}

TEST(CrashGuard, RandomPlanGateRespectsSpareCapacity) {
  fault::ChaosShape shape;
  shape.faultable = {0, 1, 2, 3, 4};
  shape.num_nodes = 6;
  shape.horizon_ns = 100 * sim::kMillisecond;
  shape.quiet_after_ns = 80 * sim::kMillisecond;
  shape.node_events = 8;
  shape.spare_capacity = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const fault::FaultPlan plan = fault::RandomFaultPlan(seed, shape);
    for (const fault::NodeEvent& ev : plan.events) {
      EXPECT_NE(ev.kind, fault::NodeEvent::Kind::kCrash) << "seed " << seed;
      EXPECT_NE(ev.kind, fault::NodeEvent::Kind::kRecover) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ring
